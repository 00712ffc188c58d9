package main

import (
	"fmt"
	"os"
	"runtime"
)

// selfCheckRuns is the size of each of the two sets.
const selfCheckRuns = 5

// selfCheck runs every workload as two sets of selfCheckRuns runs of this
// tree — run i of either set uses seed cfg.seed+i — and prints, per
// workload × end-to-end metric, how far the second set's median is worse
// than the first's and each set's spread: the distance between its
// quartiles, and between its extremes, as a share of its median. A cell
// holds when the median moved by less than the metric's bound and both
// interquartile spreads stay inside it (setup_s: the medians only). It
// reports whether every cell held.
func selfCheck(run []workload, cfg runConfig) bool {
	cfg.trace = false
	ok := true
	fmt.Printf("selfcheck: 2 sets x %d runs x %.0f s per workload, seeds %d..%d\n\n",
		selfCheckRuns, cfg.seconds, cfg.seed, cfg.seed+selfCheckRuns-1)
	fmt.Printf("| workload | metric | median A | median B | B worse by | bound | iqr A | iqr B | range A | range B | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range run {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < selfCheckRuns; i++ {
				c := cfg
				c.seed = cfg.seed + int64(i)
				res, err := runWorkload(w, c, nil, 0)
				if err != nil {
					fatal(err)
				}
				if !res.Correct {
					fmt.Printf("%s seed %d: output check failed: %v\n", w.name, c.seed, res.Problems)
					ok = false
				}
				for k, v := range res.EndToEnd {
					sets[s][k] = append(sets[s][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %c seed %d: goodput %.0f/s cpu %.3f us/write\n", w.name, 'A'+s, c.seed,
					res.EndToEnd["goodput_wps"].Value, res.EndToEnd["cpu_us_per_write"].Value)
				runtime.GC()
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound || (d.name != "setup_s" && (iqr(a) > d.bound || iqr(b) > d.bound)) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.2f%% | %.0f%% | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				w.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*iqr(a), 100*iqr(b),
				100*extent(a), 100*extent(b), verdict)
		}
	}
	return ok
}

// iqr is the distance between v's quartiles as a share of its median.
func iqr(v []float64) float64 { return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v) }

// extent is the distance between v's extremes as a share of its median.
func extent(v []float64) float64 { return (quantile(v, 1) - quantile(v, 0)) / median(v) }
