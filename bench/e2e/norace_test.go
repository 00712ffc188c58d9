//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// workload smoke skips itself under it.
const raceEnabled = false
