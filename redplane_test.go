package redplane

import (
	"testing"
	"time"

	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/netsim"
	"redplane/internal/packet"
)

// failSwitch fail-stops aggregation switch agg at virtual time at; the
// fabric detects it 50 ms later and the switch never recovers.
func failSwitch(d *Deployment, agg int, at time.Duration) {
	d.ScheduleFaultEvents(FaultSchedule{Events: []FaultEvent{{
		At: at, Kind: failure.AggFail, Agg: agg, DetectDelay: 50 * time.Millisecond,
	}}})
}

func TestDeploymentEndToEndFailover(t *testing.T) {
	d := NewDeployment(DeploymentConfig{
		Seed:          1,
		NewApp:        func(i int) App { return apps.SyncCounter{} },
		RecordHistory: true,
	})
	src := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	dst := d.AddServer(0, "server", MakeAddr(10, 0, 0, 50))
	delivered := 0
	var lastObserved uint64
	dst.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil {
			delivered++
			lastObserved = f.Pkt.Observed
		}
	}

	key := FiveTuple{Src: src.IP, Dst: dst.IP, SrcPort: 7777, DstPort: 80, Proto: packet.ProtoTCP}
	send := func(n int, startSeq uint64) {
		for i := 0; i < n; i++ {
			p := packet.NewTCP(src.IP, dst.IP, 7777, 80, packet.FlagACK, 0)
			p.Seq = startSeq + uint64(i)
			src.SendPacket(p)
		}
	}

	send(10, 1)
	d.RunFor(100 * time.Millisecond)
	owner := d.SwitchFor(key)
	if !owner.HasLease(key) {
		t.Fatal("owner has no lease")
	}

	// Fail the owner, detect after 50 ms, never recover.
	failSwitch(d, owner.ID(), 110*time.Millisecond)
	d.RunFor(300 * time.Millisecond)
	send(10, 11)
	// The sibling acquires the lease once the failed switch's lease
	// expires (~1.1 s in); sample while the flow is still fresh.
	d.RunFor(1500 * time.Millisecond)
	other := d.Switch(1 - owner.ID())
	if !other.HasLease(key) {
		t.Error("sibling never took over")
	}
	d.RunFor(3 * time.Second)

	if delivered < 15 {
		t.Errorf("delivered %d/20 (up to a few in-flight drops are expected at failover)", delivered)
	}
	if lastObserved != 20 {
		t.Errorf("final counter = %d, want 20 (state survived failover)", lastObserved)
	}
	if err := d.CheckLinearizable(); err != nil {
		t.Errorf("history: %v", err)
	}
	// The idle flow's lease subsequently lapses (activity-based
	// renewal), releasing ownership back to the store.
	if other.HasLease(key) {
		t.Error("idle flow retained its lease indefinitely")
	}
}

func TestDeploymentDefaultsAndAccessors(t *testing.T) {
	d := NewDeployment(DeploymentConfig{NewApp: func(i int) App { return apps.SyncCounter{} }})
	if d.Switches() != 2 || d.Cluster == nil {
		t.Error("defaults wrong")
	}
	if d.SwitchIP(0) == d.SwitchIP(1) {
		t.Error("switch IPs collide")
	}
	if d.Switch(0).ID() != 0 {
		t.Error("switch accessor")
	}
	if d.Now() != 0 {
		t.Error("clock should start at zero")
	}
	d.RunFor(time.Millisecond)
	if d.Now() != Time(netsim.Duration(time.Millisecond)) {
		t.Error("RunFor did not advance clock")
	}
	if err := d.CheckLinearizable(); err != nil {
		t.Error("no-history check should pass")
	}
}

func TestDeploymentNoStoreBaseline(t *testing.T) {
	d := NewDeployment(DeploymentConfig{
		Seed:     2,
		NewApp:   func(i int) App { return apps.SyncCounter{} },
		Baseline: BaselineConfig{NoStore: true},
	})
	src := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	dst := d.AddServer(0, "server", MakeAddr(10, 0, 0, 50))
	got := 0
	dst.Handler = func(f *netsim.Frame) { got++ }
	for i := 0; i < 5; i++ {
		p := packet.NewTCP(src.IP, dst.IP, 7777, 80, packet.FlagACK, 0)
		p.Seq = uint64(i + 1)
		src.SendPacket(p)
	}
	d.Run()
	if got != 5 {
		t.Errorf("baseline delivered %d/5", got)
	}
	if d.Cluster != nil {
		t.Error("NoStore deployment built a cluster")
	}
}

// A NoStore baseline seeds flow state from Protocol.LocalInit: the value
// set there must reach the switch rather than being overwritten during
// construction.
func TestDeploymentNoStoreProtocolLocalInit(t *testing.T) {
	proto := DefaultProtocolConfig()
	initCalls := map[int]int{}
	proto.LocalInit = func(sw int, key FiveTuple) []uint64 {
		initCalls[sw]++
		return []uint64{100}
	}
	d := NewDeployment(DeploymentConfig{
		Seed:     2,
		NewApp:   func(i int) App { return apps.SyncCounter{} },
		Baseline: BaselineConfig{NoStore: true},
		Protocol: proto,
	})
	src := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	dst := d.AddServer(0, "server", MakeAddr(10, 0, 0, 50))
	var last uint64
	dst.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil {
			last = f.Pkt.Observed
		}
	}
	for i := 0; i < 5; i++ {
		p := packet.NewTCP(src.IP, dst.IP, 7777, 80, packet.FlagACK, 0)
		p.Seq = uint64(i + 1)
		src.SendPacket(p)
	}
	d.Run()
	key := FiveTuple{Src: src.IP, Dst: dst.IP, SrcPort: 7777, DstPort: 80, Proto: packet.ProtoTCP}
	owner := d.SwitchFor(key).ID()
	if len(initCalls) != 1 || initCalls[owner] != 1 {
		t.Errorf("LocalInit calls per switch = %v, want one on switch %d", initCalls, owner)
	}
	if last != 105 {
		t.Errorf("final counter = %d, want 105 (LocalInit seeded 100)", last)
	}
}

func TestDeploymentRequiresApp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic without NewApp")
		}
	}()
	NewDeployment(DeploymentConfig{})
}

func TestSequencerLinearizableAcrossFailover(t *testing.T) {
	// Table 1: an in-network sequencer's failure causes "incorrect
	// sequencing" without fault tolerance. With RedPlane, the stamps a
	// failed-over sequencer hands out continue the old sequence — checked
	// by the counter-machine linearizability checker over the stamps.
	d := NewDeployment(DeploymentConfig{
		Seed:          5,
		NewApp:        func(i int) App { return &apps.Sequencer{GroupPort: 7000} },
		RecordHistory: true,
	})
	client := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	group := d.AddServer(0, "group", MakeAddr(10, 0, 0, 60))
	var stamps []uint64
	group.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil {
			stamps = append(stamps, f.Pkt.Observed)
		}
	}
	// One 5-tuple for all requests: the fabric's ECMP affinity must match
	// the sequencer's partition (§2: ECMP "configured to use the
	// partition key as their hash key").
	send := func(n int, from uint64) {
		for i := 0; i < n; i++ {
			p := packet.NewUDP(client.IP, group.IP, 100, 7000, 32)
			p.Seq = from + uint64(i)
			client.SendPacket(p)
		}
	}
	send(20, 1)
	d.RunFor(100 * time.Millisecond)
	routeKey := FiveTuple{Src: client.IP, Dst: group.IP, SrcPort: 100,
		DstPort: 7000, Proto: packet.ProtoUDP}
	owner := d.SwitchFor(routeKey)
	failSwitch(d, owner.ID(), 110*time.Millisecond)
	d.RunFor(300 * time.Millisecond)
	send(20, 21)
	d.RunFor(3 * time.Second)

	if err := d.CheckLinearizable(); err != nil {
		t.Fatalf("sequencing broke across failover: %v", err)
	}
	// Stamps never repeat and the post-failover stamps continue past the
	// pre-failure maximum (no rollback to 1).
	seen := map[uint64]bool{}
	var max uint64
	for _, s := range stamps {
		if seen[s] {
			t.Fatalf("stamp %d issued twice", s)
		}
		seen[s] = true
		if s > max {
			max = s
		}
	}
	if max != 40 {
		t.Errorf("final stamp %d, want 40", max)
	}
}

func TestThreeSwitchDeploymentCascadingFailover(t *testing.T) {
	// Beyond the paper's two-switch testbed: three programmable switches
	// share the aggregation layer; two of them fail in sequence and the
	// flow's state follows it to whichever switch remains.
	d := NewDeployment(DeploymentConfig{
		Seed:          13,
		Switches:      3,
		NewApp:        func(i int) App { return apps.SyncCounter{} },
		RecordHistory: true,
	})
	client := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	server := d.AddServer(0, "server", MakeAddr(10, 0, 0, 50))
	var last uint64
	server.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil {
			last = f.Pkt.Observed
		}
	}
	send := func(n int, from uint64) {
		for i := 0; i < n; i++ {
			p := packet.NewTCP(client.IP, server.IP, 4242, 80, packet.FlagACK, 0)
			p.Seq = from + uint64(i)
			client.SendPacket(p)
		}
	}

	send(10, 1)
	d.RunFor(100 * time.Millisecond)
	key := FiveTuple{Src: client.IP, Dst: server.IP, SrcPort: 4242, DstPort: 80, Proto: 6}
	first := d.SwitchFor(key)
	failSwitch(d, first.ID(), 110*time.Millisecond)
	d.RunFor(300 * time.Millisecond)

	send(10, 11)
	d.RunFor(2 * time.Second)
	// Find the new owner among the survivors and fail it too.
	second := -1
	for i := 0; i < 3; i++ {
		if i != first.ID() && d.Switch(i).HasLease(key) {
			second = i
		}
	}
	if second < 0 {
		t.Fatal("no survivor took the flow over")
	}
	failSwitch(d, second, 2500*time.Millisecond)
	d.RunFor(2700 * time.Millisecond)
	send(10, 21)
	d.RunFor(6 * time.Second)

	if last != 30 {
		t.Errorf("final counter %d, want 30 across two failovers", last)
	}
	if err := d.CheckLinearizable(); err != nil {
		t.Errorf("history: %v", err)
	}
}
