package store

import (
	"testing"
	"time"
)

// sweepServer starts a loopback server for sweep tests.
func sweepServer(t *testing.T, opts ...UDPOption) *UDPServer {
	t.Helper()
	srv, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: 10 * time.Second}, opts...)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestUDPSweepLoopback runs the load generator end to end against a
// sharded server and checks every write was acknowledged and applied.
func TestUDPSweepLoopback(t *testing.T) {
	srv := sweepServer(t, WithUDPShards(2))
	cfg := SweepConfig{
		Addr: srv.Addr().String(), Flows: 16, Writes: 50, Batch: 4,
		Timeout: 30 * time.Second,
	}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !res.Complete || res.AckedWrites != uint64(cfg.Flows*cfg.Writes) {
		t.Fatalf("incomplete sweep: %+v", res)
	}
	for i := 0; i < cfg.Flows; i++ {
		vals, seq, ok := srv.State(FlowKey(i))
		if !ok || seq != uint64(cfg.Writes) || len(vals) != 1 || vals[0] != uint64(cfg.Writes) {
			t.Fatalf("flow %d: vals=%v seq=%d ok=%v", i, vals, seq, ok)
		}
	}
	if n, err := VerifySweep(cfg); err != nil || n != cfg.Flows {
		t.Fatalf("verify: %d/%d flows, err=%v", n, cfg.Flows, err)
	}
	st := srv.Stats()
	if st.RxDgrams == 0 || st.TxDgrams == 0 || st.Replies == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
	if len(st.PerShard) != 2 || st.PerShard[0].Dgrams == 0 || st.PerShard[1].Dgrams == 0 {
		t.Fatalf("flows did not spread over both shards: %+v", st.PerShard)
	}
}

// TestSweepWriteTargets pins the Zipf allocation's invariants: exact
// total, one-write floor, monotone by rank, determinism, and the
// uniform fallback.
func TestSweepWriteTargets(t *testing.T) {
	uniform := SweepWriteTargets(8, 50, 0)
	for i, w := range uniform {
		if w != 50 {
			t.Fatalf("uniform flow %d target %d", i, w)
		}
	}
	const flows, writes = 16, 100
	zipf := SweepWriteTargets(flows, writes, 1.2)
	var total uint64
	for i, w := range zipf {
		total += w
		if w < 1 {
			t.Fatalf("flow %d below the one-write floor", i)
		}
		if i > 0 && w > zipf[i-1] {
			t.Fatalf("targets not monotone by rank: %v", zipf)
		}
	}
	if total != flows*writes {
		t.Fatalf("total %d, want %d", total, flows*writes)
	}
	if zipf[0] <= uint64(writes) {
		t.Fatalf("head flow %d not skewed above the mean %d", zipf[0], writes)
	}
	again := SweepWriteTargets(flows, writes, 1.2)
	for i := range zipf {
		if zipf[i] != again[i] {
			t.Fatal("allocation not deterministic")
		}
	}
}

// TestUDPSweepZipf runs a skewed sweep against a sharded server: every
// flow must still reach its (unequal) watermark, -verify must agree
// with the allocation, and the per-shard attribution must account for
// every processed write and expose the skew.
func TestUDPSweepZipf(t *testing.T) {
	srv := sweepServer(t, WithUDPShards(2))
	cfg := SweepConfig{
		Addr: srv.Addr().String(), Flows: 16, Writes: 50, Batch: 4,
		Zipf: 1.2, ShardCount: srv.Shards(), Timeout: 30 * time.Second,
	}
	res, err := RunSweep(cfg)
	if err != nil || !res.Complete {
		t.Fatalf("sweep err=%v res=%+v", err, res)
	}
	if res.AckedWrites != uint64(cfg.Flows*cfg.Writes) {
		t.Fatalf("acked %d, want the preserved total %d", res.AckedWrites, cfg.Flows*cfg.Writes)
	}
	targets := SweepWriteTargets(cfg.Flows, cfg.Writes, cfg.Zipf)
	for i := 0; i < cfg.Flows; i++ {
		_, seq, ok := srv.State(FlowKey(i))
		if !ok || seq != targets[i] {
			t.Fatalf("flow %d: seq=%d ok=%v, want %d", i, seq, ok, targets[i])
		}
	}
	var attributed uint64
	for _, v := range res.PerShardProcessed {
		attributed += v
	}
	if len(res.PerShardProcessed) != 2 || attributed != res.ProcessedWrites {
		t.Fatalf("per-shard attribution %v does not cover %d processed writes",
			res.PerShardProcessed, res.ProcessedWrites)
	}
	if res.ShardSpread < 1 {
		t.Fatalf("spread %v below 1", res.ShardSpread)
	}
	if n, err := VerifySweep(cfg); err != nil || n != cfg.Flows {
		t.Fatalf("verify: %d/%d flows, err=%v", n, cfg.Flows, err)
	}
}
