// Command redplane-bench regenerates the paper's evaluation (§7): every
// figure and table, printed as the rows/series the paper reports.
//
// Usage:
//
//	redplane-bench [-seed N] [-scale F] [-only fig8,throughput,...]
//	               [-parallel N] [-trace file] [-stats]
//	               [-cpuprofile file] [-memprofile file]
//
// -scale multiplies workload sizes (1.0 reproduces the shipped defaults;
// smaller values give quicker, noisier runs). -only selects a subset of
// sections by name.
// -parallel runs the selected sections on N worker goroutines (0 = one
// per core); each section owns a private simulator, and the results are
// printed in canonical section order, so the output is byte-identical
// to -parallel 1. -trace appends every deployment's protocol event
// timeline to the given file as JSON lines (one "run" label per
// deployment); -stats prints a counter summary for each deployment
// built. -trace and -stats hook deployment construction globally, so
// they force -parallel 1. -cpuprofile/-memprofile write pprof profiles
// of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"redplane"
	"redplane/internal/experiments"
	"redplane/internal/modelcheck"
	"redplane/internal/profiling"
	"redplane/internal/runner"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	only := flag.String("only", "", "comma-separated subset (fig8..fig15,table2,atscale,ablations,modelcheck,throughput,flowspace,wan)")
	parallel := flag.Int("parallel", 1, "worker goroutines for independent sections (0 = one per core)")
	traceFile := flag.String("trace", "", "append protocol event timelines (JSONL) to this file")
	stats := flag.Bool("stats", false, "print per-deployment counter summaries")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redplane-bench:", err)
		os.Exit(1)
	}
	defer stopProf()

	workers := runner.Workers(*parallel)
	flush := func() {}
	if *traceFile != "" || *stats {
		if workers > 1 {
			fmt.Fprintln(os.Stderr, "redplane-bench: -trace/-stats observe deployments globally; forcing -parallel 1")
			workers = 1
		}
		flush = installObserver(*traceFile, *stats)
		defer flush()
	}

	sel := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sel[strings.ToLower(s)] = true
		}
	}
	want := func(name string) bool { return len(sel) == 0 || sel[name] }
	n := func(base int) int {
		v := int(float64(base) * *scale)
		if v < 100 {
			v = 100
		}
		return v
	}
	win := func(base time.Duration) time.Duration {
		v := time.Duration(float64(base) * *scale)
		if v < time.Millisecond {
			v = time.Millisecond
		}
		return v
	}

	// Each selected section becomes one independent work unit rendering
	// into its own buffer; the runner merges them in canonical order, so
	// stdout is byte-identical whatever the worker count.
	mcFailed := false
	type sec struct {
		name string
		run  func(w io.Writer)
	}
	all := []sec{
		{"fig8", func(w io.Writer) {
			section(w, "Figure 8 — end-to-end RTT: RedPlane-NAT vs baselines")
			res := experiments.Fig8(*seed, n(100_000))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
		}},
		{"fig9", func(w io.Writer) {
			section(w, "Figure 9 — end-to-end RTT per RedPlane-enabled application")
			res := experiments.Fig9(*seed, n(50_000))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
		}},
		{"fig10", func(w io.Writer) {
			section(w, "Figure 10 — replication bandwidth overhead")
			res := experiments.Fig10(*seed, n(50_000))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
		}},
		{"fig11", func(w io.Writer) {
			section(w, "Figure 11 — snapshot bandwidth vs frequency and sketch count")
			res := experiments.Fig11(*seed)
			for _, p := range res.Points {
				fmt.Fprintln(w, "  ", p)
			}
		}},
		{"fig12", func(w io.Writer) {
			section(w, "Figure 12 — data-plane throughput with and without RedPlane")
			res := experiments.Fig12(*seed, win(50*time.Millisecond))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
		}},
		{"fig13", func(w io.Writer) {
			section(w, "Figure 13 — key-value store throughput vs update ratio")
			res := experiments.Fig13(*seed, win(50*time.Millisecond))
			for _, p := range res.Points {
				fmt.Fprintln(w, "  ", p)
			}
		}},
		{"fig14", func(w io.Writer) {
			section(w, "Figure 14 — TCP throughput during failover and recovery")
			res := experiments.Fig14(*seed, 60*time.Second)
			fmt.Fprintf(w, "   failure at %v, recovery at %v; per-second goodput (Gbps):\n",
				res.FailAt, res.RecoverAt)
			for _, s := range res.Series {
				fmt.Fprintf(w, "   %-22s", s.Label)
				for i, v := range s.Gbps {
					if i%4 == 0 {
						fmt.Fprintf(w, " %5.2f", v)
					}
				}
				fmt.Fprintln(w)
			}
		}},
		{"fig15", func(w io.Writer) {
			section(w, "Figure 15 — switch packet buffer occupancy (request buffering)")
			res := experiments.Fig15(*seed, win(20*time.Millisecond))
			for _, p := range res.Points {
				fmt.Fprintln(w, "  ", p)
			}
		}},
		{"throughput", func(w io.Writer) {
			section(w, "Sustained throughput — open-loop write path vs egress batch window")
			res := experiments.Throughput(*seed, win(20*time.Millisecond))
			fmt.Fprintf(w, "   offered load %.3f Mpps (Sync-Counter, store service %v)\n",
				res.OfferedMpps, time.Microsecond)
			for _, p := range res.Points {
				fmt.Fprintln(w, "  ", p)
			}
		}},
		{"flowspace", func(w io.Writer) {
			section(w, "Flow-space sharding — weak-scaling sweep over the chain count")
			res := experiments.FlowspaceScale(*seed, win(6*time.Millisecond))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
			fmt.Fprintf(w, "   scale-up %.2fx over %d chains, per-chain flatness %.1f%%\n",
				res.ScaleUp, res.Rows[len(res.Rows)-1].Chains, res.Flatness*100)
		}},
		{"wan", func(w io.Writer) {
			section(w, "WAN consistency — linearizable vs bounded across datacenters")
			res := experiments.WANConsistency(*seed, win(400*time.Millisecond))
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
			fmt.Fprintf(w, "   bounded/linearizable goodput at 40ms RTT: %.0fx\n", res.SpeedupAt40)
		}},
		{"table2", func(w io.Writer) {
			section(w, "Table 2 — additional switch ASIC resource usage (100k flows)")
			res := experiments.Table2(0)
			for _, r := range res.Rows {
				fmt.Fprintln(w, "  ", r)
			}
		}},
		{"atscale", func(w io.Writer) {
			section(w, "§7.2 at-scale analysis — analytical bandwidth overhead model")
			for _, m := range experiments.Fig10AtScale(0).Rows {
				fmt.Fprintln(w, "  ", m)
			}
		}},
		{"ablations", func(w io.Writer) {
			section(w, "Ablations — the design choices, quantified (DESIGN.md §5)")
			for _, a := range experiments.Ablations(*seed) {
				fmt.Fprintln(w, "  ", a)
			}
		}},
		{"modelcheck", func(w io.Writer) {
			section(w, "Appendix C — protocol model check")
			res := modelcheck.Run(modelcheck.DefaultConfig())
			fmt.Fprintf(w, "   states=%d transitions=%d depth=%d violations=%d deadlocks=%d\n",
				res.States, res.Transitions, res.Depth, len(res.Violations), res.Deadlocks)
			if !res.OK() {
				mcFailed = true // read only after the runner joins
			}
		}},
	}

	var units []func() string
	for _, s := range all {
		if !want(s.name) {
			continue
		}
		run := s.run
		units = append(units, func() string {
			var b strings.Builder
			run(&b)
			return b.String()
		})
	}
	for _, out := range runner.Map(workers, units) {
		fmt.Print(out)
	}
	if mcFailed {
		fmt.Fprintln(os.Stderr, "MODEL CHECK FAILED")
		flush()
		stopProf()
		os.Exit(1)
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// installObserver hooks deployment construction so -trace and -stats see
// every deployment the experiments build. A deployment's counters and
// trace are only final once the experiment finished driving it, which is
// the moment the *next* deployment appears (or the process exits) — so
// each flush is one deployment behind, and the returned func flushes the
// last one. The hook is process-global state, which is why -trace/-stats
// force sequential execution.
func installObserver(traceFile string, stats bool) (flush func()) {
	var out *os.File
	if traceFile != "" {
		var err error
		out, err = os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "redplane-bench:", err)
			os.Exit(1)
		}
	}
	var prev *redplane.Deployment
	runID := 0
	emit := func() {
		if prev == nil {
			return
		}
		if out != nil {
			if tr := prev.Observe().Tracer(); tr != nil {
				if err := tr.WriteJSONL(out, fmt.Sprintf("run%d", runID)); err != nil {
					fmt.Fprintln(os.Stderr, "redplane-bench: trace:", err)
				}
			}
		}
		if stats {
			t := prev.Snapshot().Totals
			fmt.Fprintf(os.Stderr,
				"[stats run%d t=%.3fs] in=%d out=%d repl=%d retx=%d drops=%d "+
					"lease_acq=%d grants=%d renews=%d migr=%d applied=%d stale=%d shed=%d\n",
				runID, prev.Now().Seconds(), t.PacketsIn, t.PacketsOut, t.ReplSends,
				t.Retransmits, t.EmulatedDrops, t.LeaseAcquired, t.LeaseGrants,
				t.LeaseRenewals, t.LeaseMigrated, t.ReplApplied, t.ReplStale,
				t.StoreDroppedRequests)
		}
		prev = nil
		runID++
	}
	var forced redplane.ObsConfig
	if traceFile != "" {
		forced.TraceEvents = redplane.DefaultTraceEvents
	}
	redplane.SetDeploymentObserver(forced, func(d *redplane.Deployment) {
		emit()
		prev = d
	})
	return func() {
		emit()
		if out != nil {
			out.Close()
		}
	}
}
