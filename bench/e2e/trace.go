package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one line of trace.jsonl: an interval of the benchmark's own
// work — run → workload → {setup, round → {send, drain, verify}, probe,
// verify} — with the span that caused it. Spans come from the files of
// this package only; nothing inside internal/* is instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Name    string `json:"name"`
	Round   int    `json:"round"` // -1 outside a round
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Calls is how many direct layer calls (probe) or datagrams (send)
	// the span covers.
	Calls int64 `json:"calls,omitempty"`
	// Counters are layer counter deltas sampled at the span's boundaries.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced rounds pay nothing.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Round: round,
		StartNs: int64(time.Since(t.base)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.base))
}

// add records a finished span from timestamps taken on another clock
// base (the generator's).
func (t *tracer) add(name string, parent, round int, base time.Time, startNs, endNs, calls int64) {
	if t == nil {
		return
	}
	off := int64(base.Sub(t.base))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Round: round,
		StartNs: off + startNs, EndNs: off + endNs, Calls: calls,
	})
}

func (t *tracer) counters(id int, c map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Counters = c
}

func (t *tracer) calls(id int, n int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Calls = n
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
