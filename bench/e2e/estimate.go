package main

import (
	"math"
	"sort"
)

// On a shared host interference only ever slows a round, so a run's rate
// and time metrics are read off its best decile of identical rounds, not
// its mean: bestHigh is the ceil(n/10)-th largest value (4th best of 40),
// bestLow the ceil(n/10)-th smallest.

func bestRank(n int) int { return (n + bestDecile - 1) / bestDecile }

func bestHigh(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return s[len(s)-bestRank(len(s))]
}

func bestLow(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	return s[bestRank(len(s))-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// interpolate is the linearly interpolated q-quantile (q in [0,1]) of an
// ascending slice; 0 for an empty one.
func interpolate[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return float64(sorted[lo]) + (h-float64(lo))*float64(sorted[hi]-sorted[lo])
}

// quantile is the q-quantile of v, which it leaves unsorted.
func quantile(v []float64, q float64) float64 { return interpolate(sortedCopy(v), q) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// cv is the coefficient of variation (population standard deviation over
// mean) of v: how far the rounds of one run disagreed.
func cv(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v))) / math.Abs(mean)
}
