package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/metrics"
	"redplane/internal/tcpsim"
)

// Fig14Series is one run's per-second TCP goodput timeline.
type Fig14Series struct {
	Label   string
	Seconds []float64
	Gbps    []float64
}

// Fig14Result is the Fig. 14 reproduction: end-to-end TCP throughput
// through a NAT during switch failover and recovery, for the baseline
// (no failure), RedPlane under failure, and no-fault-tolerance under
// failure.
type Fig14Result struct {
	Series []Fig14Series
	// FailAt/RecoverAt are the injected event times.
	FailAt, RecoverAt time.Duration
}

// Fig14 runs an iperf-style bulk transfer from an internal sender to an
// external receiver through the NAT. The owning switch fails at FailAt
// and recovers at RecoverAt; fabric detection takes 100 ms and RedPlane's
// lease period (1 s) bounds state handover, so each disruption lasts
// about a second — unless there is no fault tolerance, in which case the
// translation is lost and the connection never resumes.
func Fig14(seed int64, dur time.Duration) Fig14Result {
	if dur == 0 {
		dur = 60 * time.Second
	}
	failAt := dur / 6
	recoverAt := dur * 7 / 12
	out := Fig14Result{FailAt: failAt, RecoverAt: recoverAt}

	out.Series = append(out.Series,
		fig14Run("Baseline (no failure)", seed, dur, 0, 0, true),
		fig14Run("Failure+RedPlane", seed, dur, failAt, recoverAt, true),
		fig14Run("Failure (no FT)", seed, dur, failAt, recoverAt, false),
	)
	return out
}

// fig14Sport picks a sender port whose outbound flow AND whose translated
// reverse flow (acks to the NAT public IP) ECMP to the same switch — the
// affinity a non-fault-tolerant NAT deployment depends on (the paper's
// testbed achieves it with ECMP hashing configured on the partition key).
func fig14Sport() (uint16, uint16) {
	const firstExtPort = 20000 // first allocation of the shared pool
	for sport := uint16(40000); ; sport++ {
		out := redplane.FiveTuple{Src: intClientIP, Dst: extServerIP,
			SrcPort: sport, DstPort: 5001, Proto: 6}
		in := redplane.FiveTuple{Src: extServerIP, Dst: natPublicIP,
			SrcPort: 5001, DstPort: firstExtPort, Proto: 6}
		if out.SymmetricHash()%2 == in.SymmetricHash()%2 {
			return sport, firstExtPort
		}
	}
}

func fig14Run(label string, seed int64, dur, failAt, recoverAt time.Duration, ft bool) Fig14Series {
	nat := newNAT()
	alloc := apps.NewNATAllocator(nat)
	sport, _ := fig14Sport()
	cfg := redplane.DeploymentConfig{
		Seed:   seed,
		NewApp: func(int) redplane.App { return newNAT() },
		Fabric: fig12Fabric, // 1 Gbps fabric keeps the event count tractable
	}
	// Per-switch local pools drawing from one global port sequence:
	// after a failover or a restart the flow gets a fresh translation,
	// which is what breaks connections without fault tolerance.
	locals := map[int]*apps.NATAllocator{}
	var nextBase uint16 = 20000
	if ft {
		cfg.InitState = alloc.Init
	} else {
		cfg.Baseline.NoStore = true
		cfg.Protocol = localProtocol(func(sw int, key redplane.FiveTuple) []uint64 {
			a, ok := locals[sw]
			if !ok {
				a = apps.NewNATAllocatorBase(nat, nextBase)
				nextBase += 1000
				locals[sw] = a
			}
			return a.Init(key)
		})
	}
	d := redplane.NewDeployment(cfg)
	d.RegisterServiceIP(natPublicIP)

	sender := d.AddServer(0, "iperf-c", intClientIP)
	receiver := d.AddClient(0, "iperf-s", extServerIP)

	tcp := tcpsim.DefaultConfig()
	// Cap the window so bursts fit the fabric's finite queues: the BDP
	// here is tiny, so 16 segments saturate the path without tail drops.
	tcp.MaxCwnd = 16
	rcv := tcpsim.NewReceiver(receiver, 5001, tcp.MSS)
	series := metrics.NewSeries(1e9) // 1-second buckets
	rcv.OnDeliver = func(b int) {
		series.Add(float64(d.Now()), float64(b)*8/1e9) // Gb per bucket
	}
	snd := tcpsim.NewSender(d.Sim, sender, receiver.IP, sport, 5001, tcp)
	snd.Start()

	if failAt > 0 {
		// Identify the owning switch for the iperf flow; fail it.
		key := redplane.FiveTuple{Src: sender.IP, Dst: receiver.IP,
			SrcPort: sport, DstPort: 5001, Proto: 6}
		owner := d.SwitchFor(key)
		const detect = 100 * time.Millisecond
		d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{
			{At: failAt, Kind: failure.AggFail, Agg: owner.ID(), DetectDelay: detect},
			{At: recoverAt, Kind: failure.AggRecover, Agg: owner.ID(), DetectDelay: detect},
		}})
		if !ft {
			// Fail-stop loses the switch's local pool state too.
			d.Sim.After(failAt, func() { delete(locals, owner.ID()) })
		}
	}
	d.RunFor(dur)
	ts, vs := series.Points()
	return Fig14Series{Label: label, Seconds: ts, Gbps: vs}
}

// String renders a compact throughput timeline.
func (s Fig14Series) String() string {
	head := fmt.Sprintf("%-22s", s.Label)
	for i, v := range s.Gbps {
		if i%5 == 0 {
			head += fmt.Sprintf(" %4.2f", v)
		}
	}
	return head
}

// Mean returns the series' average goodput over [from, to) seconds.
func (s Fig14Series) Mean(from, to float64) float64 {
	var sum float64
	n := 0
	for i, t := range s.Seconds {
		if t >= from && t < to {
			sum += s.Gbps[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
