package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/baselines"
	"redplane/internal/metrics"
	"redplane/internal/netsim"
	"redplane/internal/topo"
	"redplane/internal/trace"
)

// LatencyRow is one system's latency distribution.
type LatencyRow struct {
	System string
	Lat    *metrics.Latency
}

// String renders the row with the percentiles §7.1 quotes.
func (r LatencyRow) String() string {
	return fmt.Sprintf("%-28s %s", r.System, r.Lat.SummaryMicros())
}

// Fig8Result is the Fig. 8 reproduction: end-to-end RTT when a
// RedPlane-enabled NAT processes packets versus the baseline approaches.
type Fig8Result struct {
	Rows    []LatencyRow
	Packets int
}

// ftmbShift approximates FTMB's per-packet overhead over a plain software
// NF using the numbers reported in the FTMB paper, exactly as the
// RedPlane authors did ("we use the latency reported in the original FTMB
// paper since we were not able to get its full implementation").
const ftmbShift = 30 * time.Microsecond

// Fig8 measures the six NAT variants' RTT distributions over a replayed
// trace of the given size.
func Fig8(seed int64, packets int) Fig8Result {
	flows := packets / 100
	if flows < 10 {
		flows = 10
	}
	gap := 20 * time.Microsecond
	span := time.Duration(packets) * gap / 2
	dur := time.Duration(packets)*gap + 500*time.Millisecond

	res := Fig8Result{Packets: packets}
	add := func(name string, lat *metrics.Latency) {
		res.Rows = append(res.Rows, LatencyRow{System: name, Lat: lat})
	}

	// --- Switch-NAT (no fault tolerance): local port pool, control-plane
	// insertion on each new flow.
	{
		nat := newNAT()
		alloc := apps.NewNATAllocator(nat)
		sc := &latencyScenario{
			cfg: redplane.DeploymentConfig{
				Seed:     seed,
				Baseline: redplane.BaselineConfig{NoStore: true},
				Protocol: localProtocol(localInit(alloc)),
				NewApp:   func(int) redplane.App { return newNAT() },
			},
			items: natTrace(seed, packets, flows), gap: gap, span: span, seed: seed,
			serviceIPs: []redplane.Addr{natPublicIP},
		}
		add("Switch-NAT", sc.run(dur))
	}

	// --- FT Switch-NAT w/ external controller: flow setup additionally
	// crosses a 1 Gbps management network to a chain-replicated
	// controller.
	{
		nat := newNAT()
		alloc := apps.NewNATAllocator(nat)
		proto := localProtocol(localInit(alloc))
		proto.LocalInitExtraDelay = 75 * time.Microsecond
		sc := &latencyScenario{
			cfg: redplane.DeploymentConfig{
				Seed:     seed,
				Baseline: redplane.BaselineConfig{NoStore: true},
				Protocol: proto,
				NewApp:   func(int) redplane.App { return newNAT() },
			},
			items: natTrace(seed, packets, flows), gap: gap, span: span, seed: seed,
			serviceIPs: []redplane.Addr{natPublicIP},
		}
		add("FT Switch-NAT w/ controller", sc.run(dur))
	}

	// --- RedPlane-NAT: the full protocol, port pool managed by the
	// chain-replicated state store.
	{
		nat := newNAT()
		alloc := apps.NewNATAllocator(nat)
		sc := &latencyScenario{
			cfg: redplane.DeploymentConfig{
				Seed: seed, InitState: alloc.Init,
				NewApp: func(int) redplane.App { return newNAT() },
			},
			items: natTrace(seed, packets, flows), gap: gap, span: span, seed: seed,
			serviceIPs: []redplane.Addr{natPublicIP},
		}
		add("RedPlane-NAT", sc.run(dur))
	}

	// --- Server-NAT and FT Server-NAT: software NF on a rack server.
	serverLat := serverNAT(seed, packets, flows, gap, dur, false)
	add("Server-NAT", serverLat)
	add("FT Server-NAT", serverNAT(seed, packets, flows, gap, dur, true))

	// --- FTMB-NAT: Server-NAT shifted by FTMB's reported overhead.
	ftmb := &metrics.Latency{}
	for _, pt := range serverLat.CDF(serverLat.N()) {
		ftmb.Add(pt.ValueNs + float64(ftmbShift.Nanoseconds()))
	}
	add("FTMB-NAT (reported)", ftmb)
	return res
}

// serverNAT measures the software-NF baseline: traffic is explicitly
// steered through a NAT process on a rack server.
func serverNAT(seed int64, packets, flows int, gap, dur time.Duration, ft bool) *metrics.Latency {
	sim := netsim.New(seed)
	tcfg := topo.TestbedConfig{Fabric: netsim.LinkConfig{Delay: 800 * time.Nanosecond, Bandwidth: 100e9}}
	tb := topo.NewTestbed(sim, tcfg, []topo.RoutedNode{topo.NewRouter("agg0"), topo.NewRouter("agg1")})

	client := tb.AddRackHost(0, "client", intClientIP)
	server := tb.AddExternalHost(0, "server", extServerIP)
	nfHost := tb.AddRackHost(1, "nf", packet4(10, 1, 0, 9))

	nat := &apps.NAT{InternalPrefix: intPrefix, InternalMask: intMask, PublicIP: nfHost.IP}
	alloc := apps.NewNATAllocator(nat)
	nf := baselines.NewServerNF(sim, nfHost, nat, 10*time.Microsecond)
	nf.LocalInit = alloc.Init
	if ft {
		nf.FT = true
		nf.PeerRTT = 20 * time.Microsecond
		nf.LogCost = 5 * time.Microsecond
	}
	echoServer(server)

	lat := &metrics.Latency{}
	rttRecorder(sim, client, lat)

	items := trace.Flows(randSource(seed), trace.FlowConfig{
		Flows: flows, Packets: packets, ZipfS: 0.9,
		Src: intClientIP, Dst: extServerIP, DstPort: 80, BasePort: 2000,
	})
	rng := randSource(seed ^ 0x5eed)
	starts := map[int]netsim.Time{}
	counts := map[int]int{}
	// A software NF saturates at 1/service pps; pace the replay to ~50%
	// utilization so queueing reflects burstiness, not overload.
	gap *= 4
	span := time.Duration(packets) * gap
	for _, it := range items {
		it := it
		st, ok := starts[it.FlowIdx]
		if !ok {
			st = netsim.Time(rng.Int63n(int64(netsim.Duration(span))))
			starts[it.FlowIdx] = st
		}
		at := st + netsim.Time(counts[it.FlowIdx])*netsim.Duration(gap) + 1
		counts[it.FlowIdx]++
		sim.At(at, func() {
			it.Pkt.SentAt = int64(sim.Now())
			// Outbound leg steered through the NF; the echoed reply is
			// addressed to the NF's public IP and reaches it by routing.
			client.Send(baselines.SteerFrame(it.Pkt, nfHost.IP))
		})
	}
	sim.RunUntil(netsim.Duration(dur))
	return lat
}
