//go:build race

package store

// raceEnabled reports whether the race detector is compiled in: its
// sync.Pool drops buffers on purpose, so the datagram path's allocation
// counts do not hold under it.
const raceEnabled = true
