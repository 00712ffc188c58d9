package experiments

// Shape tests: each experiment must reproduce the paper's qualitative
// result — who wins, by roughly what factor, where crossovers fall — at
// CI scale. EXPERIMENTS.md records the corresponding full-scale numbers.

import (
	"testing"
	"time"
)

func row(t *testing.T, rows []LatencyRow, name string) LatencyRow {
	t.Helper()
	for _, r := range rows {
		if r.System == name {
			return r
		}
	}
	t.Fatalf("row %q missing", name)
	return LatencyRow{}
}

func TestFig8Shape(t *testing.T) {
	res := Fig8(1, 5000)
	if len(res.Rows) != 6 {
		t.Fatalf("systems = %d, want 6", len(res.Rows))
	}
	sw := row(t, res.Rows, "Switch-NAT")
	rp := row(t, res.Rows, "RedPlane-NAT")
	ctl := row(t, res.Rows, "FT Switch-NAT w/ controller")
	srv := row(t, res.Rows, "Server-NAT")
	ftsrv := row(t, res.Rows, "FT Server-NAT")
	ftmb := row(t, res.Rows, "FTMB-NAT (reported)")

	// RedPlane adds no median overhead over the plain switch NAT (§7.1:
	// "the same 50th and 90th percentile latency").
	if rp.Lat.Percentile(50) > sw.Lat.Percentile(50)*1.1 {
		t.Errorf("RedPlane p50 %.1fµs vs Switch %.1fµs",
			rp.Lat.Percentile(50)/1e3, sw.Lat.Percentile(50)/1e3)
	}
	// Tail ordering: Switch < RedPlane < controller.
	if !(sw.Lat.Percentile(99) < rp.Lat.Percentile(99) &&
		rp.Lat.Percentile(99) < ctl.Lat.Percentile(99)) {
		t.Errorf("p99 ordering broken: sw=%.0f rp=%.0f ctl=%.0f (µs)",
			sw.Lat.Percentile(99)/1e3, rp.Lat.Percentile(99)/1e3, ctl.Lat.Percentile(99)/1e3)
	}
	// Server baselines are several times worse at the median (paper:
	// 7-14x; we require >=3x to keep CI stable).
	if srv.Lat.Percentile(50) < 3*sw.Lat.Percentile(50) {
		t.Errorf("Server-NAT p50 %.1fµs not >=3x Switch-NAT %.1fµs",
			srv.Lat.Percentile(50)/1e3, sw.Lat.Percentile(50)/1e3)
	}
	// FT server above plain server; FTMB worst.
	if ftsrv.Lat.Percentile(50) <= srv.Lat.Percentile(50) {
		t.Error("FT Server-NAT not slower than Server-NAT")
	}
	if ftmb.Lat.Percentile(50) <= ftsrv.Lat.Percentile(50) {
		t.Error("FTMB not the slowest baseline")
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(1, 3000)
	if len(res.Rows) != 8 {
		t.Fatalf("apps = %d, want 8", len(res.Rows))
	}
	// The six read-centric/asynchronous apps share the no-overhead median
	// (paper: "all have the same 8µs median latency").
	base := row(t, res.Rows, "HH-detection").Lat.Percentile(50)
	for _, name := range []string{"NAT", "Firewall", "Load balancer", "EPC-SGW", "Async-Counter"} {
		p50 := row(t, res.Rows, name).Lat.Percentile(50)
		if p50 > base*1.25 {
			t.Errorf("%s p50 %.1fµs not at the no-overhead baseline %.1fµs",
				name, p50/1e3, base/1e3)
		}
	}
	// Sync-Counter pays for synchronous replication; the chain makes it
	// worse (paper: +20µs with chain, 12µs of which is the chain).
	noChain := row(t, res.Rows, "Sync-Counter (w/o chain)").Lat.Percentile(50)
	chain := row(t, res.Rows, "Sync-Counter (w/ chain)").Lat.Percentile(50)
	if noChain < base+3e3 {
		t.Errorf("Sync-Counter w/o chain %.1fµs shows no write overhead", noChain/1e3)
	}
	if chain < noChain+5e3 {
		t.Errorf("chain adds only %.1fµs", (chain-noChain)/1e3)
	}
}

func TestFig10Shape(t *testing.T) {
	res := Fig10(1, 10_000)
	byApp := map[string]float64{}
	for _, r := range res.Rows {
		byApp[r.App] = r.OverheadPercent()
		if r.OriginalBytes == 0 {
			t.Errorf("%s carried no traffic", r.App)
		}
	}
	// Ordering (paper Fig. 10): read-centric < HH < EPC < Sync-Counter.
	if !(byApp["Firewall"] < byApp["EPC-SGW"] && byApp["EPC-SGW"] < byApp["Sync-Counter"]) {
		t.Errorf("overhead ordering broken: %v", byApp)
	}
	if byApp["Sync-Counter"] < 40 {
		t.Errorf("Sync-Counter overhead %.1f%% implausibly low", byApp["Sync-Counter"])
	}
	if byApp["HH-detector"] > byApp["Sync-Counter"] {
		t.Errorf("async snapshots cost more than per-packet sync: %v", byApp)
	}
}

func TestFig11Shape(t *testing.T) {
	res := Fig11(1)
	get := func(freq, sketches int) float64 {
		for _, p := range res.Points {
			if p.FrequencyHz == freq && p.Sketches == sketches {
				return p.Mbps
			}
		}
		t.Fatalf("missing point %d/%d", freq, sketches)
		return 0
	}
	// Linear in frequency (x2 freq => ~x2 bandwidth) and proportional to
	// sketch count.
	r := get(1024, 3) / get(512, 3)
	if r < 1.7 || r > 2.3 {
		t.Errorf("bandwidth not linear in frequency: ratio %.2f", r)
	}
	s := get(512, 5) / get(512, 3)
	if s < 1.4 || s > 1.9 { // 5/3 ≈ 1.67
		t.Errorf("bandwidth not proportional to sketches: ratio %.2f", s)
	}
	// The paper's quoted point: ~34 Mbps at 1 kHz with 3 sketches; ours
	// lands the same order of magnitude.
	if v := get(1024, 3); v < 10 || v > 120 {
		t.Errorf("1kHz/3-sketch bandwidth %.1f Mbps out of band", v)
	}
}

func TestFig12Shape(t *testing.T) {
	res := Fig12(1, 10*time.Millisecond)
	byApp := map[string]ThroughputRow{}
	for _, r := range res.Rows {
		byApp[r.App] = r
	}
	// Read-centric and asynchronous apps keep their throughput (paper:
	// identical to non-fault-tolerant counterparts).
	for _, name := range []string{"NAT", "Firewall", "Load balancer", "HH-detector"} {
		r := byApp[name]
		if r.RedPlaneMpps < 0.95*r.BaselineMpps {
			t.Errorf("%s retained only %.0f%%", name, 100*r.RedPlaneMpps/r.BaselineMpps)
		}
	}
	// EPC-SGW at most slightly lower.
	epc := byApp["EPC-SGW"]
	if epc.RedPlaneMpps < 0.85*epc.BaselineMpps {
		t.Errorf("EPC-SGW retained only %.0f%%", 100*epc.RedPlaneMpps/epc.BaselineMpps)
	}
	// Sync-Counter is store-bound: dramatically reduced, but alive.
	sync := byApp["Sync-Counter"]
	frac := sync.RedPlaneMpps / sync.BaselineMpps
	if frac > 0.7 || frac < 0.05 {
		t.Errorf("Sync-Counter retained %.0f%%, want store-bound fraction", 100*frac)
	}
}

func TestFig13Shape(t *testing.T) {
	res := Fig13(1, 10*time.Millisecond)
	get := func(u float64, stores int) float64 {
		for _, p := range res.Points {
			if p.UpdateRatio == u && p.Stores == stores {
				return p.Mpps
			}
		}
		t.Fatalf("missing point %v/%d", u, stores)
		return 0
	}
	// Throughput degrades with update ratio at one store...
	if !(get(0, 1) > get(0.6, 1) && get(0.6, 1) > get(1.0, 1)) {
		t.Errorf("no degradation with update ratio at 1 store")
	}
	// ...and added store servers recover it (paper: "by adding more
	// servers, we can achieve higher throughput").
	if get(1.0, 3) <= get(1.0, 1) {
		t.Errorf("3 stores (%.2f) not faster than 1 (%.2f) at update ratio 1",
			get(1.0, 3), get(1.0, 1))
	}
}

func TestFig14Shape(t *testing.T) {
	res := Fig14(1, 24*time.Second)
	var base, rp, noft Fig14Series
	for _, s := range res.Series {
		switch s.Label {
		case "Baseline (no failure)":
			base = s
		case "Failure+RedPlane":
			rp = s
		case "Failure (no FT)":
			noft = s
		}
	}
	failS := res.FailAt.Seconds()
	recS := res.RecoverAt.Seconds()

	// Baseline steady throughout.
	if base.Mean(1, 23) < 0.9 {
		t.Errorf("baseline mean %.2f Gbps", base.Mean(1, 23))
	}
	// RedPlane: full rate before, RECOVERS within ~2 s of the failure,
	// full rate between the disruptions and after recovery settles.
	if rp.Mean(1, failS) < 0.9 {
		t.Errorf("RedPlane pre-failure %.2f", rp.Mean(1, failS))
	}
	if rp.Mean(failS+2, recS) < 0.9 {
		t.Errorf("RedPlane did not recover after failover: %.2f", rp.Mean(failS+2, recS))
	}
	if rp.Mean(recS+3, 24) < 0.9 {
		t.Errorf("RedPlane did not recover after failback: %.2f", rp.Mean(recS+3, 24))
	}
	// Without fault tolerance the connection dies at the failure and
	// never returns (paper: "breaking the TCP connections").
	if noft.Mean(1, failS) < 0.9 {
		t.Errorf("no-FT pre-failure %.2f", noft.Mean(1, failS))
	}
	if noft.Mean(failS+2, 24) > 0.05 {
		t.Errorf("no-FT connection resurrected: %.2f", noft.Mean(failS+2, 24))
	}
}

func TestFig15Shape(t *testing.T) {
	res := Fig15(1, 10*time.Millisecond)
	// Occupancy grows with traffic rate at fixed loss.
	at := func(paperRate, loss float64) float64 {
		for _, p := range res.Points {
			if p.PaperGbps == paperRate && p.LossPercent == loss {
				return p.MaxBufferKB
			}
		}
		t.Fatalf("missing point %v/%v", paperRate, loss)
		return 0
	}
	for _, loss := range []float64{0, 1, 2} {
		if !(at(20, loss) < at(100, loss)) {
			t.Errorf("occupancy not increasing in rate at %.0f%% loss", loss)
		}
	}
	// At the uncongested low rate, loss adds retransmission residue
	// (at high rates queueing dominates both).
	if at(20, 2) < at(20, 0) {
		t.Errorf("loss does not raise low-rate occupancy: 0%%=%v 2%%=%v", at(20, 0), at(20, 2))
	}
	// All measurements present and positive.
	if len(res.Points) != 15 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MaxBufferKB <= 0 {
			t.Errorf("zero occupancy at %+v", p)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res := Table2(0)
	if res.Flows != 100_000 || len(res.Rows) != 7 {
		t.Fatalf("rows=%d flows=%d", len(res.Rows), res.Flows)
	}
	var max float64
	var maxName string
	for _, r := range res.Rows {
		if r.Percent >= 14 {
			t.Errorf("%s at %.1f%% exceeds the paper's <14%% bound", r.Resource, r.Percent)
		}
		if r.Percent > max {
			max, maxName = r.Percent, string(r.Resource)
		}
	}
	if maxName != "SRAM" {
		t.Errorf("largest consumer %s, paper says SRAM", maxName)
	}
}

func TestFlowspaceScaleShape(t *testing.T) {
	res := FlowspaceScale(1, 4*time.Millisecond)
	if len(res.Rows) != len(FlowspaceChainCounts) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(FlowspaceChainCounts))
	}
	// Aggregate goodput climbs with the chain count: the widest point
	// must deliver at least 6x the single chain (ideal 8x; measured 8.000x).
	if res.ScaleUp < 6 {
		t.Errorf("scale-up %.2fx, want >=6x", res.ScaleUp)
	}
	// The single chain absorbs its offered 1.2 Mpps (measured 1.2007,
	// deterministic: simulated time). 0.99 is where the retired CI perf
	// gate tripped — its 1.1 Mpps floor less the gate's 10% margin — so
	// a routing or protocol change that erodes one chain's goodput fails
	// here as it failed there.
	if g := res.Rows[0].GoodputMpps; g < 0.99 {
		t.Errorf("single-chain goodput %.4f Mpps, want >=0.99", g)
	}
	for i, r := range res.Rows {
		if r.Chains != FlowspaceChainCounts[i] {
			t.Fatalf("row %d chains=%d, want %d", i, r.Chains, FlowspaceChainCounts[i])
		}
		if i > 0 && r.GoodputMpps <= res.Rows[i-1].GoodputMpps {
			t.Errorf("aggregate goodput not monotone: %v then %v", res.Rows[i-1], r)
		}
		// The ring spreads the flows over every chain: no chain may carry
		// more than 3x another's applied writes at any sweep point.
		if r.Chains > 1 && (r.ChainSpread < 1 || r.ChainSpread > 3) {
			t.Errorf("chains=%d applied-write spread %.2f outside [1,3]", r.Chains, r.ChainSpread)
		}
	}
	// Weak scaling: adding chains must not cost any point its per-chain
	// goodput (the PR's ±10% acceptance bar; measured 0.0000).
	if res.Flatness > 0.10 {
		t.Errorf("per-chain goodput deviates %.1f%% from the single chain, want <=10%%",
			res.Flatness*100)
	}
}

func TestWANConsistencyShape(t *testing.T) {
	res := WANConsistency(1, 120*time.Millisecond)
	if len(res.Rows) != len(WANRTTs) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(WANRTTs))
	}
	// The headline acceptance bar: at 40 ms inter-DC RTT, bounded mode
	// must deliver at least 2x the linearizable goodput (measured: two
	// orders of magnitude beyond that).
	if res.SpeedupAt40 < 2 {
		t.Errorf("speedup at 40ms = %.2fx, want >=2x", res.SpeedupAt40)
	}
	// The retired CI perf gate's floors, at its trip points (floor less
	// the gate's 10% margin). At this test's 120 ms window the run is
	// deterministic (simulated time) and measures a 590x speedup, bounded
	// 78.67 kpps and linearizable 0.1333 kpps at 40 ms: the speedup floor
	// of 300 (trips below 270) sits two orders of magnitude above the 2x
	// bar; bounded mode must stay think-time-bound under WAN delay (70,
	// trips below 63); and the linearizable closed loop must not stall
	// outright (0.10, trips below 0.09 — delivery counts are
	// RTT-quantized, so this floor sits well under the measured point).
	if res.SpeedupAt40 < 270 {
		t.Errorf("speedup at 40ms = %.1fx, want >=270x", res.SpeedupAt40)
	}
	for _, r := range res.Rows {
		if r.RTT != 40*time.Millisecond {
			continue
		}
		if r.BndGoodputKpps < 63 {
			t.Errorf("bounded goodput at 40ms = %.2f kpps, want >=63", r.BndGoodputKpps)
		}
		if r.LinGoodputKpps < 0.09 {
			t.Errorf("linearizable goodput at 40ms = %.4f kpps, want >=0.09", r.LinGoodputKpps)
		}
	}
	base := res.Rows[0]
	for i, r := range res.Rows {
		if r.RTT != WANRTTs[i] {
			t.Fatalf("row %d rtt=%v, want %v", i, r.RTT, WANRTTs[i])
		}
		if r.LinGoodputKpps <= 0 || r.BndGoodputKpps <= 0 {
			t.Fatalf("rtt=%v: zero goodput: %v", r.RTT, r)
		}
		// Bounded mode is think-time-bound: RTT must not cost it goodput
		// (±20% of the zero-RTT point) nor blow up its one-way latency.
		if dev := r.BndGoodputKpps/base.BndGoodputKpps - 1; dev < -0.20 || dev > 0.20 {
			t.Errorf("rtt=%v: bounded goodput %.1f kpps deviates %.0f%% from rtt=0 %.1f kpps",
				r.RTT, r.BndGoodputKpps, dev*100, base.BndGoodputKpps)
		}
		if r.BndP50 > time.Millisecond {
			t.Errorf("rtt=%v: bounded p50 %v not RTT-independent", r.RTT, r.BndP50)
		}
		if r.RTT == 0 {
			continue
		}
		// Linearizable latency traces the geo-replicated commit: two of
		// the three chain hops cross the WAN, so p50 ≈ 2·RTT.
		if r.LinP50 < r.RTT || r.LinP50 > 3*r.RTT {
			t.Errorf("rtt=%v: linearizable p50 %v outside [RTT, 3·RTT]", r.RTT, r.LinP50)
		}
		// And its goodput collapses monotonically as the RTT grows.
		if prev := res.Rows[i-1]; r.LinGoodputKpps > prev.LinGoodputKpps {
			t.Errorf("linearizable goodput not monotone down: %v then %v", prev, r)
		}
	}
}
