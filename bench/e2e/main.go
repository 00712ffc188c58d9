// Command e2e is the repository's benchmark: it hosts the replicated
// state store in this process — a chain of store.UDPServers over real
// loopback sockets, and a simulated deployment through a store-head
// failover — drives it with its own load generator, checks the outputs
// and prints every metric by name. See README.md in this directory.
//
//	go run ./bench/e2e                      # every workload, end-to-end metrics
//	go run ./bench/e2e -workload chain3-pkt -seed 7 -seconds 10
//	go run ./bench/e2e -trace 1             # per-layer metrics, budget, out/trace.jsonl
//	go run ./bench/e2e -selfcheck           # two sets of runs of this tree against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Int64("seed", 1, "derives flow keys, written values, arrival times and the simulator seed")
	seconds := flag.Float64("seconds", 10, "how long each workload's measured rounds run")
	trace := flag.Int("trace", 0, "1 = interleave traced rounds, run the layer probes, report per-layer metrics and write trace.jsonl")
	outDir := flag.String("out", filepath.Join("bench", "e2e", "out"), "directory for result.json and trace.jsonl")
	selfcheck := flag.Bool("selfcheck", false, "run the suite as two sets of runs and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir}
	if *selfcheck {
		if !selfCheck(run, cfg) {
			os.Exit(1)
		}
		return
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := tr.begin("run", 0, -1)
	var results []result
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, cfg, tr, root)
		if err != nil {
			fatal(err)
		}
		printResult(res)
		results = append(results, res)
		ok = ok && res.Correct
	}
	tr.end(root)

	if err := writeJSON(filepath.Join(*outDir, "result.json"), results); err != nil {
		fatal(err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(*outDir, "trace.jsonl")); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable result of
	// the (last) workload: end-to-end metrics untraced, per-layer traced.
	last := results[len(results)-1]
	fmt.Println(lastLine(last, cfg.trace))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// lastLine renders the one-object summary the benchmark contract asks
// for.
func lastLine(r result, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, v := range src {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

func printResult(r result) {
	fmt.Printf("\n== %s (seed %d, GOMAXPROCS %d) — %s\n", r.Workload, r.Seed, r.GOMAXPROCS, r.Why)
	fmt.Printf("   load: %s\n", r.Load)
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	fmt.Printf("   rounds %d   attempted %d   failed %d   correct %v\n", r.Rounds, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, d := range endToEnd {
		v := r.EndToEnd[d.name]
		fmt.Printf("   %-34s %14.4f %-6s (rounds %d, round cv %.3f, %s, bound %.0f%%)\n",
			d.name, v.Value, v.Unit, v.Rounds, v.CV, better(d), d.bound*100)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Println("   -- per layer")
	for _, d := range perLayer {
		v := r.PerLayer[d.name]
		fmt.Printf("   %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
	}
	printBudget(r)
}

func better(d metricDef) string {
	if d.higher {
		return "higher is better"
	}
	return "lower is better"
}

// printBudget prints the write budget: each layer's ns per write against
// the end-to-end CPU per write.
func printBudget(r result) {
	if len(r.Budget) == 0 {
		return
	}
	cpuNs := r.EndToEnd["cpu_us_per_write"].Value * 1e3
	names := make([]string, 0, len(r.Budget))
	for k := range r.Budget {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("   -- write budget (ns of CPU per acknowledged write)")
	for _, k := range names {
		fmt.Printf("   %-34s %14.1f ns  %5.1f%%\n", k, r.Budget[k], 100*r.Budget[k]/cpuNs)
	}
	resid := r.PerLayer["budget.residual_frac"].Value
	fmt.Printf("   %-34s %14.1f ns  %5.1f%%\n", "unexplained (budget.residual_frac)", resid*cpuNs, 100*resid)
	fmt.Printf("   %-34s %14.1f ns\n", "cpu_us_per_write", cpuNs)
}
