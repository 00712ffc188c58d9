package redplane_test

// One benchmark per table and figure in the paper's evaluation (§7).
// Each bench runs the corresponding experiment driver at a CI-friendly
// scale and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature; cmd/redplane-bench runs the full-scale versions.

import (
	"testing"
	"time"

	"redplane"
	"redplane/internal/experiments"
	"redplane/internal/modelcheck"
	"redplane/internal/netsim"
	"redplane/internal/packet"
)

// skipUnderRace skips the full-evaluation benchmarks when the race
// detector is on: the single-threaded simulator cannot race, and the
// 10-20x slowdown makes these runs time out in CI. The short unit and
// packet-path benches still run under -race.
func skipUnderRace(b *testing.B) {
	b.Helper()
	if raceEnabled {
		b.Skip("full-evaluation benchmark skipped under -race (single-threaded simulator; see scripts/check.sh)")
	}
}

// BenchmarkFig8LatencyNAT reproduces Fig. 8: RTT for RedPlane-NAT vs the
// five baseline NATs. Reports RedPlane-NAT's median RTT.
func BenchmarkFig8LatencyNAT(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(int64(i+1), 10_000)
		for _, r := range res.Rows {
			if r.System == "RedPlane-NAT" {
				b.ReportMetric(r.Lat.Percentile(50)/1e3, "p50-µs")
				b.ReportMetric(r.Lat.Percentile(99)/1e3, "p99-µs")
			}
		}
	}
}

// BenchmarkFig9LatencyApps reproduces Fig. 9: per-application RTT.
// Reports the worst case (Sync-Counter with chain replication).
func BenchmarkFig9LatencyApps(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(int64(i+1), 5_000)
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Lat.Percentile(50)/1e3, "sync-counter-p50-µs")
	}
}

// BenchmarkFig10Bandwidth reproduces Fig. 10: replication bandwidth
// overhead per application. Reports the Sync-Counter overhead share.
func BenchmarkFig10Bandwidth(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10(int64(i+1), 10_000)
		for _, r := range res.Rows {
			if r.App == "Sync-Counter" {
				b.ReportMetric(r.OverheadPercent(), "sync-overhead-%")
			}
			if r.App == "NAT" {
				b.ReportMetric(r.OverheadPercent(), "nat-overhead-%")
			}
		}
	}
}

// BenchmarkFig11SnapshotBandwidth reproduces Fig. 11: snapshot bandwidth
// vs frequency and sketch count. Reports the 1 kHz / 3-sketch point the
// paper quotes (34.16 Mbps on their testbed).
func BenchmarkFig11SnapshotBandwidth(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11(int64(i + 1))
		for _, p := range res.Points {
			if p.FrequencyHz == 1024 && p.Sketches == 3 {
				b.ReportMetric(p.Mbps, "Mbps@1kHz/3sketches")
			}
		}
	}
}

// BenchmarkFig12Throughput reproduces Fig. 12: data-plane throughput with
// and without RedPlane. Reports Sync-Counter's retained fraction.
func BenchmarkFig12Throughput(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12(int64(i+1), 10*time.Millisecond)
		for _, r := range res.Rows {
			if r.App == "Sync-Counter" {
				b.ReportMetric(100*r.RedPlaneMpps/r.BaselineMpps, "sync-retained-%")
			}
			if r.App == "NAT" {
				b.ReportMetric(100*r.RedPlaneMpps/r.BaselineMpps, "nat-retained-%")
			}
		}
	}
}

// BenchmarkThroughputBatching runs the open-loop sustained-throughput
// sweep over the egress batch window and reports goodput with batching
// off and at the default chaos window, plus the ratio — the headline
// number for the batched store pipeline.
func BenchmarkThroughputBatching(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Throughput(int64(i+1), 5*time.Millisecond)
		var off, on float64
		for _, p := range res.Points {
			switch p.Window {
			case 0:
				off = p.GoodputMpps
			case 10 * time.Microsecond:
				on = p.GoodputMpps
			}
		}
		b.ReportMetric(off, "unbatched-Mpps")
		b.ReportMetric(on, "batched-10µs-Mpps")
		if off > 0 {
			b.ReportMetric(on/off, "speedup-x")
		}
	}
}

// BenchmarkThroughputDurability runs the same open-loop write-heavy load
// with the store volatile vs durable (WAL + group-commit fsync) and
// reports the goodput retained and the durable log volume — the cost of
// surviving a kill -9.
func BenchmarkThroughputDurability(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.ThroughputDurability(int64(i+1), 5*time.Millisecond)
		b.ReportMetric(res.Off.GoodputMpps, "volatile-Mpps")
		b.ReportMetric(res.On.GoodputMpps, "durable-Mpps")
		if res.Off.GoodputMpps > 0 {
			b.ReportMetric(100*res.On.GoodputMpps/res.Off.GoodputMpps, "retained-%")
		}
		b.ReportMetric(res.On.P99Us-res.Off.P99Us, "p99-delta-µs")
		b.ReportMetric(float64(res.On.WALBytes)/(1<<20), "wal-MB")
	}
}

// BenchmarkFig13KVUpdateRatio reproduces Fig. 13: key-value throughput vs
// update ratio and store count. Reports the hardest point (all updates,
// one store) and the easiest (all updates, three stores).
func BenchmarkFig13KVUpdateRatio(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13(int64(i+1), 10*time.Millisecond)
		for _, p := range res.Points {
			if p.UpdateRatio == 1.0 && p.Stores == 1 {
				b.ReportMetric(p.Mpps, "u1.0-1store-Mpps")
			}
			if p.UpdateRatio == 1.0 && p.Stores == 3 {
				b.ReportMetric(p.Mpps, "u1.0-3stores-Mpps")
			}
		}
	}
}

// BenchmarkFig14Failover reproduces Fig. 14: TCP goodput through failover
// and recovery. Reports steady-state goodput and the post-failure dip.
func BenchmarkFig14Failover(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig14(int64(i+1), 24*time.Second)
		for _, s := range res.Series {
			if s.Label == "Failure+RedPlane" {
				b.ReportMetric(s.Mean(1, res.FailAt.Seconds()), "pre-failure-Gbps")
				b.ReportMetric(s.Mean(res.FailAt.Seconds()+2, res.RecoverAt.Seconds()), "post-failover-Gbps")
			}
		}
	}
}

// BenchmarkEngineFailover compares the chain and quorum replication
// engines on the same synchronous write workload: healthy goodput, p50
// commit latency, and the delivery stall across a store head (= quorum
// leader) cold crash with the membership coordinator splicing.
func BenchmarkEngineFailover(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.EngineFailover(int64(i+1), 1200*time.Millisecond)
		for _, r := range rows {
			b.ReportMetric(r.GoodputKpps, r.Engine+"-goodput-kpps")
			b.ReportMetric(float64(r.P50Latency)/1e3, r.Engine+"-p50-µs")
			b.ReportMetric(float64(r.FailoverStall)/1e3, r.Engine+"-failover-µs")
		}
	}
}

// BenchmarkFlowspaceScale runs the flow-space sharding weak-scaling
// sweep: per-chain offered load held constant while the chain count
// grows 1→8, flows routed by the consistent-hash ring. Reports the
// single-chain and 8-chain aggregate goodput, the scale-up ratio, and
// the worst per-chain deviation — the numbers whose floors
// internal/experiments' TestFlowspaceScaleShape asserts.
func BenchmarkFlowspaceScale(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.FlowspaceScale(int64(i+1), 5*time.Millisecond)
		rows := res.Rows
		b.ReportMetric(rows[0].GoodputMpps, "1chain-Mpps")
		b.ReportMetric(rows[len(rows)-1].GoodputMpps, "8chain-Mpps")
		b.ReportMetric(res.ScaleUp, "scaleup-x")
		b.ReportMetric(100*(1-res.Flatness), "flatness-%")
	}
}

// BenchmarkWANConsistency runs the WAN consistency sweep: a closed-loop
// workload against store chains spanning three datacenters, inter-DC
// RTT swept 0–80 ms, linearizable vs bounded-inconsistency mode.
// Reports the 40 ms goodputs and the bounded-over-linearizable speedup
// — the numbers whose floors internal/experiments'
// TestWANConsistencyShape asserts.
func BenchmarkWANConsistency(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.WANConsistency(int64(i+1), 200*time.Millisecond)
		for _, r := range res.Rows {
			if r.RTT == 40*time.Millisecond {
				b.ReportMetric(r.LinGoodputKpps, "lin40ms-kpps")
				b.ReportMetric(r.BndGoodputKpps, "bnd40ms-kpps")
			}
		}
		b.ReportMetric(res.SpeedupAt40, "speedup40-x")
	}
}

// BenchmarkFig15BufferOccupancy reproduces Fig. 15: retransmission buffer
// occupancy vs rate and request loss. Reports the worst corner.
func BenchmarkFig15BufferOccupancy(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Fig15(int64(i+1), 5*time.Millisecond)
		var maxKB float64
		for _, p := range res.Points {
			if p.MaxBufferKB > maxKB {
				maxKB = p.MaxBufferKB
			}
		}
		b.ReportMetric(maxKB, "max-buffer-KB")
	}
}

// BenchmarkTable2Resources reproduces Table 2 (Appendix E): additional
// ASIC resource usage at 100k flows. Reports the largest consumer (SRAM).
func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(100_000)
		for _, r := range res.Rows {
			if r.Resource == "SRAM" {
				b.ReportMetric(r.Percent, "sram-%")
			}
		}
	}
}

// BenchmarkAblations runs the design-choice ablations (DESIGN.md §5):
// sequencing, retransmission, chain length, snapshot period, mirror
// buffer sizing.
func BenchmarkAblations(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablations(int64(i + 1))
		for _, r := range rows {
			if r.Name == "request sequencing" {
				b.ReportMetric(r.Without, "unseq-regressions-per-1000")
			}
		}
	}
}

// BenchmarkModelCheck explores the protocol's full state space (Appendix
// C) and reports its size.
func BenchmarkModelCheck(b *testing.B) {
	skipUnderRace(b)
	for i := 0; i < b.N; i++ {
		res := modelcheck.Run(modelcheck.DefaultConfig())
		if !res.OK() {
			b.Fatal("invariant violation")
		}
		b.ReportMetric(float64(res.States), "states")
	}
}

// BenchmarkDeploymentPacketPath measures the simulator's per-packet cost
// through the full RedPlane data path (read-centric app, warm lease).
func BenchmarkDeploymentPacketPath(b *testing.B) {
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:   1,
		NewApp: func(int) redplane.App { return benchReaderApp{} },
	})
	src := d.AddClient(0, "src", redplane.MakeAddr(100, 0, 0, 1))
	dst := d.AddServer(0, "dst", redplane.MakeAddr(10, 0, 0, 50))
	_ = dst
	// Warm the lease.
	p := newBenchPacket(src.IP, dst.IP)
	src.SendPacket(p)
	d.RunFor(10 * time.Millisecond)
	// Drain in bounded virtual-time slices: a full Run() would chase the
	// lease-renewal ticker forever.
	horizon := d.Now()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.SendPacket(newBenchPacket(src.IP, dst.IP))
		if d.Sim.Pending() > 4096 {
			horizon += netsim.Duration(time.Millisecond)
			d.Sim.RunUntil(horizon)
		}
	}
	d.Sim.RunUntil(horizon + netsim.Duration(time.Second))
}

// benchReaderApp is a minimal read-only app for the packet-path bench.
type benchReaderApp struct{}

func (benchReaderApp) Name() string { return "bench-reader" }
func (benchReaderApp) Key(p *redplane.Packet) (redplane.FiveTuple, bool) {
	return p.Flow(), true
}
func (benchReaderApp) Process(p *redplane.Packet, state []uint64) ([]*redplane.Packet, []uint64) {
	return []*redplane.Packet{p}, nil
}
func (benchReaderApp) InstallVia() redplane.InstallPath { return redplane.InstallRegister }

// newBenchPacket builds the packet used by the packet-path bench.
func newBenchPacket(src, dst redplane.Addr) *redplane.Packet {
	return packet.NewTCP(src, dst, 5555, 80, packet.FlagACK, 0)
}
