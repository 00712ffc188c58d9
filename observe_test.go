package redplane

import (
	"bytes"
	"testing"
	"time"

	"redplane/internal/apps"
	"redplane/internal/obs"
	"redplane/internal/packet"
)

// observeDeployment builds a two-switch deployment with tracing and
// sampling on and pushes n writes of one flow through it, spaced gap
// apart. Replication acks cover cumulatively, so a gap wider than the
// retransmission timeout is needed for drops to surface as retransmits
// rather than being covered by the next write's ack.
func observeDeployment(t *testing.T, seed int64, n int, gap time.Duration, loss float64) *Deployment {
	t.Helper()
	proto := DefaultProtocolConfig()
	proto.EmulatedRequestLoss = loss
	d := NewDeployment(DeploymentConfig{
		Seed:     seed,
		NewApp:   func(i int) App { return apps.SyncCounter{} },
		Protocol: proto,
		Obs: ObsConfig{
			TraceEvents:  DefaultTraceEvents,
			SamplePeriod: 100 * time.Microsecond,
		},
	})
	src := d.AddClient(0, "client", MakeAddr(100, 0, 0, 1))
	dst := d.AddServer(0, "server", MakeAddr(10, 0, 0, 50))
	for i := 0; i < n; i++ {
		p := packet.NewTCP(src.IP, dst.IP, 7777, 80, packet.FlagACK, 0)
		p.Seq = uint64(i + 1)
		d.Sim.After(time.Duration(i)*gap, func() { src.SendPacket(p) })
	}
	return d
}

func TestSnapshotCountsScriptedScenario(t *testing.T) {
	const n = 20
	d := observeDeployment(t, 3, n, 50*time.Microsecond, 0)
	d.RunFor(100 * time.Millisecond)
	snap := d.Snapshot()

	// Every packet is a write: exactly one replication send each, and the
	// store applies every one. No loss was injected, so nothing
	// retransmits.
	if snap.Totals.PacketsIn != n {
		t.Errorf("PacketsIn = %d, want %d", snap.Totals.PacketsIn, n)
	}
	if snap.Totals.ReplSends != n {
		t.Errorf("ReplSends = %d, want %d", snap.Totals.ReplSends, n)
	}
	if snap.Totals.ReplApplied != n {
		t.Errorf("ReplApplied = %d, want %d", snap.Totals.ReplApplied, n)
	}
	if snap.Totals.Retransmits != 0 || snap.Totals.EmulatedDrops != 0 {
		t.Errorf("unexpected loss path: retransmits=%d drops=%d",
			snap.Totals.Retransmits, snap.Totals.EmulatedDrops)
	}
	if snap.Totals.LeaseAcquired == 0 || snap.Totals.LeaseGrants == 0 {
		t.Errorf("no lease activity: acquired=%d grants=%d",
			snap.Totals.LeaseAcquired, snap.Totals.LeaseGrants)
	}
	if len(snap.Switches) != 2 || len(snap.Store) != 3 {
		t.Fatalf("snapshot shape: %d switches, %d store servers",
			len(snap.Switches), len(snap.Store))
	}
	if snap.At != d.Now() {
		t.Errorf("snapshot time %d vs now %d", snap.At, d.Now())
	}
}

func TestSnapshotRetransmitsUnderForcedLoss(t *testing.T) {
	const n = 40
	// Space writes wider than the 1 ms retransmission timeout so each
	// dropped request must be recovered by the mirror loop, not covered
	// by the next write's cumulative ack.
	d := observeDeployment(t, 7, n, 2*time.Millisecond, 0.3)
	d.RunFor(500 * time.Millisecond)
	snap := d.Snapshot()

	if snap.Totals.EmulatedDrops == 0 {
		t.Error("forced loss dropped nothing")
	}
	if snap.Totals.Retransmits == 0 {
		t.Error("no retransmissions despite forced loss")
	}
	// Individual dropped updates may be superseded by a later write's
	// cumulative ack (full-state replication is last-writer-wins), but
	// the mirror loop guarantees the final state is durable: the store
	// holds the flow's final counter value.
	key := FiveTuple{Src: MakeAddr(100, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 50),
		SrcPort: 7777, DstPort: 80, Proto: packet.ProtoTCP}
	shard := d.Cluster.ShardFor(key)
	vals, _, ok := d.Cluster.Tail(shard).Shard().State(key)
	if !ok || len(vals) == 0 || vals[0] != n {
		t.Errorf("durable state = %v (ok=%v), want counter %d at the chain tail", vals, ok, n)
	}
}

func TestTracerTimelineAndExport(t *testing.T) {
	const n = 10
	d := observeDeployment(t, 11, n, 50*time.Microsecond, 0)
	d.RunFor(50 * time.Millisecond)

	tr := d.Observe().Tracer()
	if tr == nil {
		t.Fatal("tracer not installed despite Obs.TraceEvents")
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events traced")
	}
	var grants, sends, acks int
	lastT := int64(-1)
	for _, e := range evs {
		if e.T < lastT {
			t.Fatalf("events out of order: %d after %d", e.T, lastT)
		}
		lastT = e.T
		switch e.Type {
		case obs.EvLeaseGrant:
			grants++
		case obs.EvReplSend:
			sends++
			if e.Flow == "" {
				t.Error("replication event without a flow key")
			}
		case obs.EvReplAck:
			acks++
		}
	}
	if grants == 0 || sends != n || acks == 0 {
		t.Errorf("timeline grants=%d sends=%d acks=%d, want >0/%d/>0", grants, sends, acks, n)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Errorf("JSONL round-trip %d events, want %d", len(back), len(evs))
	}
}

func TestSampledSeriesAndDeprecatedGetters(t *testing.T) {
	const n = 20
	d := observeDeployment(t, 17, n, 50*time.Microsecond, 0)
	d.RunFor(50 * time.Millisecond)

	reg := d.Observe()
	s := reg.Series("switch/redplane-sw0/buf_bytes")
	if s == nil || len(s.V) == 0 {
		t.Fatal("buf_bytes series missing or empty")
	}
	if s.T[len(s.T)-1] <= s.T[0] {
		t.Error("series timestamps did not advance")
	}

	for i := 0; i < d.Switches(); i++ {
		sw := d.Switch(i)
		st := sw.Stats()
		if sw.BufBytes() != st.BufBytes {
			t.Errorf("sw%d BufBytes() = %d, Stats().BufBytes = %d", i, sw.BufBytes(), st.BufBytes)
		}
		if sw.Flows() != st.Flows {
			t.Errorf("sw%d Flows() = %d, Stats().Flows = %d", i, sw.Flows(), st.Flows)
		}
	}
}

func TestObsDisabledByDefault(t *testing.T) {
	d := NewDeployment(DeploymentConfig{NewApp: func(i int) App { return apps.SyncCounter{} }})
	if d.Observe() == nil {
		t.Fatal("registry must always exist")
	}
	if d.Observe().Tracer() != nil {
		t.Error("tracer on without Obs.TraceEvents")
	}
	d.RunFor(10 * time.Millisecond)
	if names := d.Observe().SeriesNames(); len(names) != 0 {
		t.Errorf("sampling ran without Obs.SamplePeriod: %v", names)
	}
}
