package failure

import (
	"testing"
	"time"

	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/topo"
)

// fakeSwitch records Fail/Recover calls.
type fakeSwitch struct{ failed, recovered int }

func (f *fakeSwitch) Fail()    { f.failed++ }
func (f *fakeSwitch) Recover() { f.recovered++ }

func build(sim *netsim.Sim) *topo.Testbed {
	cfg := topo.TestbedConfig{Fabric: netsim.LinkConfig{Delay: time.Microsecond}}
	return topo.NewTestbed(sim, cfg, []topo.RoutedNode{topo.NewRouter("agg0"), topo.NewRouter("agg1")})
}

// TestInstallFailStopAndRecovery walks one fail-stop/recover cycle of a
// slot through the fabric: flows hashed to the slot black-hole until
// detection, reroute after it, and use both paths again after recovery.
func TestInstallFailStopAndRecovery(t *testing.T) {
	sim := netsim.New(1)
	tb := build(sim)
	src := tb.AddExternalHost(0, "src", packet.MakeAddr(100, 0, 0, 1))
	dst := tb.AddRackHost(0, "dst", packet.MakeAddr(10, 0, 0, 1))
	got := 0
	dst.Handler = func(f *netsim.Frame) { got++ }
	sw := &fakeSwitch{}

	Install(sim, Targets{Testbed: tb, Agg: func(int) Switchlike { return sw }},
		Schedule{Events: []Event{
			{At: 10 * time.Millisecond, Kind: AggFail, Agg: 0, DetectDelay: 5 * time.Millisecond},
			{At: 30 * time.Millisecond, Kind: AggRecover, Agg: 0, DetectDelay: 5 * time.Millisecond},
		}})

	send := func() {
		// A flow pinned (by hash) to agg 0 would black-hole when it is
		// down; use many flows so some traverse it.
		for sp := 1; sp <= 20; sp++ {
			src.SendPacket(packet.NewTCP(src.IP, dst.IP, uint16(sp), 80, 0, 0))
		}
	}
	send()
	sim.RunUntil(netsim.Duration(5 * time.Millisecond))
	if got != 20 {
		t.Fatalf("pre-failure delivered %d/20", got)
	}
	if sw.failed != 0 {
		t.Fatal("failed too early")
	}

	// Between failure and detection: flows hashed to agg0 black-hole.
	sim.RunUntil(netsim.Duration(12 * time.Millisecond))
	if sw.failed != 1 {
		t.Fatal("switch not failed at FailAt")
	}
	got = 0
	send()
	sim.RunUntil(netsim.Duration(14 * time.Millisecond))
	if got == 20 || got == 0 {
		t.Fatalf("undetected failure should black-hole some flows: %d/20", got)
	}

	// After detection: everything reroutes to agg1.
	sim.RunUntil(netsim.Duration(20 * time.Millisecond))
	got = 0
	send()
	sim.RunUntil(netsim.Duration(22 * time.Millisecond))
	if got != 20 {
		t.Fatalf("post-detection delivered %d/20", got)
	}

	// After recovery + detection clears, both paths carry again.
	sim.RunUntil(netsim.Duration(50 * time.Millisecond))
	if sw.recovered != 1 {
		t.Fatal("switch not recovered")
	}
	got = 0
	send()
	sim.Run()
	if got != 20 {
		t.Fatalf("post-recovery delivered %d/20", got)
	}
}

// TestInstallNilObserver exercises the unified observer-present guard:
// with no registry installed, neither counters nor tracing must be
// touched, with or without an active tracer elsewhere.
func TestInstallNilObserver(t *testing.T) {
	sim := netsim.New(4)
	if sim.Observer() != nil {
		t.Fatal("fresh sim should have no observer")
	}
	tb := build(sim)
	sw := &fakeSwitch{}
	Install(sim, Targets{Testbed: tb, Agg: func(int) Switchlike { return sw }},
		Schedule{Events: []Event{
			{At: time.Millisecond, Kind: AggFail, Agg: 0, DetectDelay: time.Millisecond},
			{At: 3 * time.Millisecond, Kind: AggRecover, Agg: 0, DetectDelay: time.Millisecond},
			{At: 4 * time.Millisecond, Kind: StoreFail, Shard: 0, Replica: 0},
			{At: 5 * time.Millisecond, Kind: StoreRecover, Shard: 0, Replica: 0},
		}})
	sim.Run() // must not panic on nil counters/tracer
	if sw.failed != 1 || sw.recovered != 1 {
		t.Errorf("fail/recover = %d/%d, want 1/1", sw.failed, sw.recovered)
	}
}

// TestInstallObserverCounts checks the counter/trace side of the guard:
// with a registry and tracer installed, both record consistently.
func TestInstallObserverCounts(t *testing.T) {
	sim := netsim.New(5)
	reg := obs.NewRegistry()
	reg.SetTracer(obs.NewTracer(64))
	sim.SetObserver(reg)
	tb := build(sim)
	Install(sim, Targets{Testbed: tb}, Schedule{Events: []Event{
		{At: time.Millisecond, Kind: AggFail, Agg: 0},
		{At: 2 * time.Millisecond, Kind: AggRecover, Agg: 0},
		{At: 3 * time.Millisecond, Kind: StoreFail},
	}})
	sim.Run()
	ns := reg.NS("failure")
	if ns.Counter("injected").Value() != 2 || ns.Counter("recovered").Value() != 1 {
		t.Errorf("injected/recovered = %d/%d, want 2/1",
			ns.Counter("injected").Value(), ns.Counter("recovered").Value())
	}
	// Store events count but do not trace here (the server traces its
	// own Fail/Recover): only the two agg link transitions are traced.
	if n := len(reg.Tracer().Events()); n != 2 {
		t.Errorf("traced %d events, want 2", n)
	}
}

// TestOverlappingAggFailures fails both aggregation slots with
// overlapping windows: while both are down all traffic black-holes, and
// each slot carries again after its own recovery is detected.
func TestOverlappingAggFailures(t *testing.T) {
	sim := netsim.New(6)
	tb := build(sim)
	src := tb.AddExternalHost(0, "src", packet.MakeAddr(100, 0, 0, 1))
	dst := tb.AddRackHost(0, "dst", packet.MakeAddr(10, 0, 0, 1))
	got := 0
	dst.Handler = func(f *netsim.Frame) { got++ }
	sw0, sw1 := &fakeSwitch{}, &fakeSwitch{}
	aggs := []Switchlike{sw0, sw1}

	Install(sim, Targets{Testbed: tb, Agg: func(i int) Switchlike { return aggs[i] }},
		Schedule{Events: []Event{
			{At: 10 * time.Millisecond, Kind: AggFail, Agg: 0, DetectDelay: 2 * time.Millisecond},
			{At: 15 * time.Millisecond, Kind: AggFail, Agg: 1, DetectDelay: 2 * time.Millisecond},
			{At: 30 * time.Millisecond, Kind: AggRecover, Agg: 1, DetectDelay: 2 * time.Millisecond},
			{At: 40 * time.Millisecond, Kind: AggRecover, Agg: 0, DetectDelay: 2 * time.Millisecond},
		}})

	send := func() {
		for sp := 1; sp <= 20; sp++ {
			src.SendPacket(packet.NewTCP(src.IP, dst.IP, uint16(sp), 80, 0, 0))
		}
	}
	// Both down (after both detections): nothing gets through.
	sim.RunUntil(netsim.Duration(20 * time.Millisecond))
	got = 0
	send()
	sim.RunUntil(netsim.Duration(25 * time.Millisecond))
	if got != 0 {
		t.Fatalf("both slots down, yet %d/20 delivered", got)
	}
	if sw0.failed != 1 || sw1.failed != 1 {
		t.Fatalf("fail-stops = %d/%d, want 1/1", sw0.failed, sw1.failed)
	}

	// Slot 1 back (slot 0 still down): all traffic via agg1.
	sim.RunUntil(netsim.Duration(35 * time.Millisecond))
	got = 0
	send()
	sim.RunUntil(netsim.Duration(38 * time.Millisecond))
	if got != 20 {
		t.Fatalf("after slot-1 recovery delivered %d/20", got)
	}

	// Both back.
	sim.Run()
	got = 0
	send()
	sim.Run()
	if got != 20 {
		t.Fatalf("after full recovery delivered %d/20", got)
	}
	if sw0.recovered != 1 || sw1.recovered != 1 {
		t.Errorf("recoveries = %d/%d, want 1/1", sw0.recovered, sw1.recovered)
	}
}

// TestRecoveryBeforeDetection flaps a slot faster than the fabric's
// detection delay: the delayed observation samples the slot's status at
// observation time, so routing converges to "up" rather than wedging on
// the stale "down" observation.
func TestRecoveryBeforeDetection(t *testing.T) {
	sim := netsim.New(7)
	tb := build(sim)
	src := tb.AddExternalHost(0, "src", packet.MakeAddr(100, 0, 0, 1))
	dst := tb.AddRackHost(0, "dst", packet.MakeAddr(10, 0, 0, 1))
	got := 0
	dst.Handler = func(f *netsim.Frame) { got++ }

	// Fail at 10 ms with 20 ms detection; recover at 15 ms — before the
	// failure is ever detected.
	Install(sim, Targets{Testbed: tb}, Schedule{Events: []Event{
		{At: 10 * time.Millisecond, Kind: AggFail, Agg: 0, DetectDelay: 20 * time.Millisecond},
		{At: 15 * time.Millisecond, Kind: AggRecover, Agg: 0, DetectDelay: 20 * time.Millisecond},
	}})

	// Run past both delayed detections (30 ms and 35 ms).
	sim.RunUntil(netsim.Duration(40 * time.Millisecond))
	for sp := 1; sp <= 20; sp++ {
		src.SendPacket(packet.NewTCP(src.IP, dst.IP, uint16(sp), 80, 0, 0))
	}
	sim.Run()
	if got != 20 {
		t.Fatalf("post-flap delivered %d/20: stale detection wedged routing", got)
	}
}

// TestLinkOnlyVsFailStopRetention verifies the state-retention contract
// of the two failure flavors over a multi-event schedule: link-only
// events never touch the switch, fail-stop events do, and each pairing
// retains independent per-slot bookkeeping.
func TestLinkOnlyVsFailStopRetention(t *testing.T) {
	sim := netsim.New(8)
	tb := build(sim)
	sw0, sw1 := &fakeSwitch{}, &fakeSwitch{}
	aggs := []Switchlike{sw0, sw1}
	Install(sim, Targets{Testbed: tb, Agg: func(i int) Switchlike { return aggs[i] }},
		Schedule{Events: []Event{
			// Slot 0: two link-only flaps.
			{At: 1 * time.Millisecond, Kind: AggFail, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
			{At: 2 * time.Millisecond, Kind: AggRecover, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
			{At: 3 * time.Millisecond, Kind: AggFail, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
			{At: 4 * time.Millisecond, Kind: AggRecover, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
			// Slot 1: a fail-stop cycle.
			{At: 1 * time.Millisecond, Kind: AggFail, Agg: 1, DetectDelay: time.Millisecond},
			{At: 5 * time.Millisecond, Kind: AggRecover, Agg: 1, DetectDelay: time.Millisecond},
		}})
	sim.Run()
	if sw0.failed != 0 || sw0.recovered != 0 {
		t.Errorf("link-only slot saw Fail/Recover %d/%d, want 0/0", sw0.failed, sw0.recovered)
	}
	if sw1.failed != 1 || sw1.recovered != 1 {
		t.Errorf("fail-stop slot saw Fail/Recover %d/%d, want 1/1", sw1.failed, sw1.recovered)
	}
}

// TestStoreFaultEvents routes store events to the store resolver.
func TestStoreFaultEvents(t *testing.T) {
	sim := netsim.New(9)
	tb := build(sim)
	servers := map[[2]int]*fakeSwitch{
		{0, 0}: {}, {0, 1}: {},
	}
	Install(sim, Targets{
		Testbed: tb,
		Store: func(sh, r int) Switchlike {
			if s, ok := servers[[2]int{sh, r}]; ok {
				return s
			}
			return nil
		},
	}, Schedule{Events: []Event{
		{At: 1 * time.Millisecond, Kind: StoreFail, Shard: 0, Replica: 1},
		{At: 2 * time.Millisecond, Kind: StoreRecover, Shard: 0, Replica: 1},
		{At: 3 * time.Millisecond, Kind: StoreFail, Shard: 5, Replica: 5}, // unresolved: no-op
	}})
	sim.Run()
	if s := servers[[2]int{0, 1}]; s.failed != 1 || s.recovered != 1 {
		t.Errorf("store (0,1) fail/recover = %d/%d, want 1/1", s.failed, s.recovered)
	}
	if s := servers[[2]int{0, 0}]; s.failed != 0 {
		t.Errorf("store (0,0) failed %d times, want 0", s.failed)
	}
}

// TestLinkRecoveryAbsorbedWhileDead overlaps a link-only fault with a
// permanent fail-stop on the same slot: the link-only recovery must NOT
// bring the dead switch's links back (a fail-stopped switch has no links
// to bring up), or the fabric would steer traffic into a black hole.
func TestLinkRecoveryAbsorbedWhileDead(t *testing.T) {
	sim := netsim.New(9)
	tb := build(sim)
	src := tb.AddExternalHost(0, "src", packet.MakeAddr(100, 0, 0, 1))
	dst := tb.AddRackHost(0, "dst", packet.MakeAddr(10, 0, 0, 1))
	got := 0
	dst.Handler = func(f *netsim.Frame) { got++ }
	sw := &fakeSwitch{}
	Install(sim, Targets{Testbed: tb, Agg: func(i int) Switchlike {
		if i == 0 {
			return sw
		}
		return nil
	}}, Schedule{Events: []Event{
		// Link-only outage, then a permanent fail-stop mid-outage.
		{At: 1 * time.Millisecond, Kind: AggFail, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
		{At: 2 * time.Millisecond, Kind: AggFail, Agg: 0, DetectDelay: time.Millisecond},
		{At: 5 * time.Millisecond, Kind: AggRecover, Agg: 0, LinkOnly: true, DetectDelay: time.Millisecond},
	}})
	sim.RunUntil(netsim.Duration(20 * time.Millisecond))

	// Well after the absorbed recovery and its would-be detection, every
	// flow must still avoid the dead slot and deliver via agg1.
	for sp := 1; sp <= 20; sp++ {
		src.SendPacket(packet.NewTCP(src.IP, dst.IP, uint16(sp), 80, 0, 0))
	}
	sim.RunUntil(netsim.Duration(25 * time.Millisecond))
	if got != 20 {
		t.Fatalf("delivered %d/20 after absorbed link recovery", got)
	}
	if sw.failed != 1 || sw.recovered != 0 {
		t.Errorf("fail/recover = %d/%d, want 1/0", sw.failed, sw.recovered)
	}
}
