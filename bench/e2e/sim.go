package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/store"
)

// simInstance drives the simulator's half of the same layers: a
// Sync-Counter deployment on the chain engine with durability and
// membership, whose store head cold-crashes a third into every round and
// rejoins at two thirds (the shape of experiments.EngineFailover, rebuilt
// here so that package can change freely). Every round builds a fresh
// deployment from the same seed, so the rounds of a run do identical
// work and their virtual-time results must be identical too.
type simInstance struct {
	seed  int64
	first *simRound // the first round of this set-up: later rounds must repeat it

	// Output-check findings accumulated over the rounds.
	failed   int64
	problems []string
}

// simRound is what one simulated round produced, all in virtual time.
type simRound struct {
	sent, delivered int
	p50, p99        float64 // µs, send→sink over every delivered packet
	stallUs         float64
	detectUs        float64
	events          uint64
	retransmits     uint64
	viewChanges     uint64
	fsyncs          uint64
	buildMs         float64
}

func newSimInstance(seed int64) *simInstance { return &simInstance{seed: seed} }

func (si *simInstance) mark()  {}
func (si *simInstance) close() {}

var (
	simSenderIP = packet.MakeAddr(10, 0, 0, 61)
	simSinkIP   = packet.MakeAddr(100, 0, 0, 9)
)

func (si *simInstance) round(m *meter, tr *tracer, parent, n int) (roundSample, error) {
	rsp := tr.begin("round", parent, n)
	bsp := tr.begin("sim.build", rsp, n)
	t0 := time.Now()
	rng := rand.New(rand.NewSource(si.seed))
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:            si.seed,
		NewApp:          func(int) redplane.App { return apps.SyncCounter{} },
		Replication:     redplane.ReplicationConfig{Engine: redplane.EngineChain},
		StoreDurability: store.DurabilityConfig{Enabled: true},
		StoreMembership: true,
		RecordHistory:   true,
	})
	sink := d.AddClient(0, "sink", simSinkIP)
	snd := d.AddServer(0, "snd", simSenderIP)

	warmT := netsim.Duration(simWarmup)
	endT := netsim.Duration(simDuration)
	failAt := simDuration/3 + 700*time.Microsecond // off the coordinator's probe grid
	recoverAt := 2 * simDuration / 3
	failT := netsim.Duration(failAt)

	sentAt := []netsim.Time{0} // packet Seq 0 is the lease-establishing SYNs
	got := []bool{true}
	var lats []int64
	var deliveries []netsim.Time
	sink.Handler = func(f *netsim.Frame) {
		now := d.Now()
		deliveries = append(deliveries, now)
		if f.Pkt == nil || f.Pkt.Seq == 0 || f.Pkt.Seq >= uint64(len(sentAt)) {
			return
		}
		got[f.Pkt.Seq] = true
		lats = append(lats, int64(now-sentAt[f.Pkt.Seq]))
	}

	// Flow ports and the Poisson arrival process come from the seed.
	ports := make([]uint16, 0, simFlows)
	for len(ports) < simFlows {
		p := uint16(1024 + rng.Intn(60000))
		if !slices.Contains(ports, p) {
			ports = append(ports, p)
		}
	}
	perFlow := make([]uint64, simFlows)
	for i, port := range ports {
		p := packet.NewTCP(snd.IP, sink.IP, port, 80, packet.FlagACK|packet.FlagSYN, 0)
		snd.SendPacket(p)
		perFlow[i]++
	}
	meanGapNs := float64(time.Second) / simRate
	at := warmT
	k := 0
	var arrive func()
	arrive = func() {
		p := packet.NewTCP(snd.IP, sink.IP, ports[k%simFlows], 80, packet.FlagACK, 0)
		p.Seq = uint64(len(sentAt))
		sentAt = append(sentAt, d.Now())
		got = append(got, false)
		snd.SendPacket(p)
		perFlow[k%simFlows]++
		k++
		at += netsim.Time(1 + int64(rng.ExpFloat64()*meanGapNs))
		if at < endT {
			d.Sim.At(at, arrive)
		}
	}
	d.Sim.At(at, arrive)
	d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{
		{At: failAt, Kind: failure.StoreFail, Shard: 0, Replica: 0, Cold: true},
		{At: recoverAt, Kind: failure.StoreRecover, Shard: 0, Replica: 0},
	}})
	// A traced round also watches, once per virtual microsecond from the
	// crash on, for the coordinator's splice: the detection time.
	var detectedAt netsim.Time
	if tr != nil {
		d.Sim.Every(failT, netsim.Duration(time.Microsecond), func() bool {
			if d.Coordinator.Stats().ViewChanges > 0 {
				detectedAt = d.Now()
				return false
			}
			return true
		})
	}
	buildMs := float64(time.Since(t0)) / 1e6
	tr.end(bsp)

	wsp := tr.begin("sim.run", rsp, n)
	m.start()
	d.RunFor(simDuration + simTail)
	m.stop()
	tr.end(wsp)

	vsp := tr.begin("verify", rsp, n)
	defer func() { tr.end(vsp); tr.end(rsp) }()
	snap := d.Snapshot()
	r := simRound{
		sent: k, delivered: len(deliveries) - simFlows, events: d.Sim.Delivered,
		retransmits: snap.Totals.Retransmits, viewChanges: snap.Totals.MemberViewChanges,
		buildMs: buildMs,
	}
	for name, v := range d.Observe().Counters() {
		if strings.HasPrefix(name, "store/") && strings.HasSuffix(name, "/fsyncs") {
			r.fsyncs += v
		}
	}
	slices.Sort(lats)
	r.p50 = interpolate(lats, 0.50) / 1e3
	r.p99 = interpolate(lats, 0.99) / 1e3
	var prev, maxGap netsim.Time
	for _, t := range deliveries {
		if t >= failT && prev > 0 && t-prev > maxGap {
			maxGap = t - prev
		}
		prev = t
	}
	r.stallUs = float64(maxGap) / 1e3
	if detectedAt > 0 {
		r.detectUs = float64(detectedAt-failT) / 1e3
	}
	tr.counters(rsp, map[string]float64{
		"netsim.frames": float64(r.events), "core.retransmits": float64(r.retransmits),
		"member.view_changes": float64(r.viewChanges), "store.fsyncs": float64(r.fsyncs),
	})

	// Output checks. Every write must commit: the store's counter for a
	// flow equals the packets sent on it. A packet may lose its payload
	// only while a fault is being handled; the store chain must agree and
	// the history must be linearizable.
	committed := 0
	for i, port := range ports {
		key := packet.FiveTuple{Src: snd.IP, Dst: sink.IP, SrcPort: port, DstPort: 80, Proto: 6}
		vals, _, ok := d.Cluster.Head(0).Shard().State(key)
		if !ok || len(vals) == 0 || vals[0] != perFlow[i] {
			// The runner counts the uncommitted writes themselves.
			si.fail(0, fmt.Sprintf("round %d: flow %d holds %v, want counter %d", n, i, vals, perFlow[i]))
			continue
		}
		committed += int(perFlow[i]) - 1
	}
	slack := netsim.Duration(simFaultSlack)
	for seq := 1; seq < len(got); seq++ {
		if got[seq] {
			continue
		}
		t := sentAt[seq]
		nearFail := t >= failT-slack && t < failT+slack
		nearRejoin := t >= netsim.Duration(recoverAt)-slack && t < netsim.Duration(recoverAt)+slack
		if !nearFail && !nearRejoin {
			si.fail(1, fmt.Sprintf("round %d: packet sent at %v, away from any fault, was never delivered", n, time.Duration(t)))
		}
	}
	if err := d.ChainAgreement(); err != nil {
		si.fail(1, fmt.Sprintf("round %d: %v", n, err))
	}
	if err := d.CheckLinearizable(); err != nil {
		si.fail(1, fmt.Sprintf("round %d: %v", n, err))
	}
	// The deterministic expectation for the delivered count (and every
	// other virtual-time result) is the first round of the same seed.
	if si.first == nil {
		si.first = &r
	} else if f := si.first; r.sent != f.sent || r.delivered != f.delivered || r.p50 != f.p50 ||
		r.stallUs != f.stallUs || r.events != f.events {
		si.fail(1, fmt.Sprintf("round %d is not a repeat of the first: sent %d/%d delivered %d/%d p50 %v/%v stall %v/%v",
			n, r.sent, f.sent, r.delivered, f.delivered, r.p50, f.p50, r.stallUs, f.stallUs))
	}

	s := m.sample
	s.attempted = int64(r.sent)
	s.writes = int64(committed)
	s.p50us, s.p99us = r.p50, r.p99
	s.retrans = int64(r.retransmits)
	s.sim = &r
	return s, nil
}

func (si *simInstance) fail(n int64, problem string) {
	si.failed += n
	if len(si.problems) < 8 {
		si.problems = append(si.problems, problem)
	}
}

func (si *simInstance) verify(tr *tracer, parent int) (int64, []string) {
	return si.failed, si.problems
}

func (si *simInstance) layers(out map[string]float64, rounds []roundSample) {
	if len(rounds) == 0 {
		return
	}
	var nsPerEvent, build []float64
	for _, s := range rounds {
		nsPerEvent = append(nsPerEvent, s.wallNs/float64(s.sim.events))
		build = append(build, s.sim.buildMs)
		if s.sim.detectUs > 0 { // traced rounds only
			out["member.detect_us"] = s.sim.detectUs
		}
	}
	// Virtual-time results are the same in every round.
	r, writes := rounds[0].sim, float64(rounds[0].writes)
	out["netsim.events_per_write"] = float64(r.events) / writes
	out["netsim.ns_per_event"] = bestLow(nsPerEvent)
	out["sim.build_ms"] = bestLow(build)
	out["core.retransmits"] = float64(r.retransmits)
	out["member.view_changes"] = float64(r.viewChanges)
	out["member.failover_stall_us"] = r.stallUs
	out["store.fsyncs_per_write"] = float64(r.fsyncs) / writes
}
