package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"redplane/internal/wire"
)

func TestBestDecileEstimators(t *testing.T) {
	// 40 identical rounds, three of them slowed by interference: the
	// best-decile estimators must not see the slow ones.
	rate := make([]float64, 40)
	dur := make([]float64, 40)
	for i := range rate {
		rate[i] = 1000 + float64(i) // 1000..1039
		dur[i] = 100 + float64(i)   // 100..139
	}
	rate[5], rate[17], rate[29] = 400, 500, 600
	dur[5], dur[17], dur[29] = 900, 800, 700
	if got := bestHigh(rate); got != 1036 { // 4th best of 40
		t.Errorf("bestHigh(40 rounds) = %v, want 1036", got)
	}
	if got := bestLow(dur); got != 103 { // 4th smallest of 40
		t.Errorf("bestLow(40 rounds) = %v, want 103", got)
	}
	for n, want := range map[int]int{1: 1, 8: 1, 10: 1, 11: 2, 20: 2, 40: 4, 41: 5} {
		if got := bestRank(n); got != want {
			t.Errorf("bestRank(%d) = %d, want %d", n, got, want)
		}
	}
	if got := bestHigh([]float64{3, 9, 5}); got != 9 {
		t.Errorf("bestHigh of 3 rounds = %v, want the best", got)
	}
	if bestHigh(nil) != 0 || bestLow(nil) != 0 || median(nil) != 0 || cv(nil) != 0 {
		t.Error("estimators of no rounds must be 0")
	}
}

func TestQuantilesAndCV(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 0.25); got != 1.75 {
		t.Errorf("q25 = %v, want 1.75", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("q100 = %v, want 4", got)
	}
	if v[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
	if got := interpolate([]int64{10, 20, 30, 40, 50}, 0.5); got != 30 {
		t.Errorf("quantileInt64 median = %v, want 30", got)
	}
	if got := interpolate([]int64{10, 20}, 0.5); got != 15 {
		t.Errorf("quantileInt64 of two = %v, want 15", got)
	}
	if got := cv([]float64{5, 5, 5}); got != 0 {
		t.Errorf("cv of equal rounds = %v, want 0", got)
	}
	if got := cv([]float64{1, 3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cv([1 3]) = %v, want 0.5", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func direction(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the tables the
// runner emits from in step, both ways.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, runner {%s %s}", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.name)
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, runner %+v", i, m, d)
		}
		if !unitRE.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", d.name, d.unit, d.bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the runner %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.name)
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, runner %+v", i, m, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("per-layer %s: unit %q", d.name, d.unit)
		}
	}
}

// stubStore acknowledges every request the way the store's tail does,
// without a store behind it. hold makes it sit on the first hold
// requests until no more arrive, to see the window close; dropFirst
// discards that many write datagrams, to see them retransmitted.
type stubStore struct {
	conn      *net.UDPConn
	hold      int
	dropFirst int
	held      int // high-water mark of requests held unanswered
	extra     bool
	done      chan struct{}
}

func newStubStore(t *testing.T, hold, dropFirst int) *stubStore {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Room for a full window of batch datagrams, as the store's sockets have.
	conn.SetReadBuffer(4 << 20)
	s := &stubStore{conn: conn, hold: hold, dropFirst: dropFirst, done: make(chan struct{})}
	go s.serve()
	t.Cleanup(s.stop)
	return s
}

// stop ends the stub; its findings may be read afterwards.
func (s *stubStore) stop() {
	s.conn.Close()
	<-s.done
}

func (s *stubStore) ack(req []byte, to *net.UDPAddr) {
	var out []byte
	one := func(m *wire.Message) *wire.Message {
		return &wire.Message{Type: wire.AckFor(m.Type), Seq: m.Seq, Key: m.Key, SwitchID: m.SwitchID}
	}
	if wire.IsBatch(req) {
		var bt, acks wire.Batch
		if bt.Unmarshal(req) != nil {
			return
		}
		for _, m := range bt.Msgs {
			acks.Msgs = append(acks.Msgs, one(m))
		}
		out = acks.Marshal(nil)
	} else {
		var m wire.Message
		if m.Unmarshal(req) != nil {
			return
		}
		out = one(&m).Marshal(nil)
	}
	s.conn.WriteToUDP(out, to)
}

func (s *stubStore) serve() {
	defer close(s.done)
	type held struct {
		b  []byte
		to *net.UDPAddr
	}
	var queue []held
	buf := make([]byte, 64<<10)
	for {
		if s.hold > 0 && len(queue) == s.hold {
			// The window should now be closed: nothing more may arrive
			// until the held requests are answered.
			s.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		}
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && len(queue) > 0 {
				s.conn.SetReadDeadline(time.Time{})
				s.held = len(queue)
				for _, h := range queue {
					s.ack(h.b, h.to)
				}
				queue, s.hold = nil, 0
				continue
			}
			return
		}
		req := append([]byte(nil), buf[:n]...)
		var m wire.Message
		isWrite := wire.IsBatch(req) || (m.Unmarshal(req) == nil && m.Type == wire.MsgRepl)
		if isWrite && s.dropFirst > 0 {
			s.dropFirst--
			continue
		}
		if s.hold > 0 {
			if len(queue) == s.hold {
				s.extra = true // a datagram beyond the window
			}
			queue = append(queue, held{req, from})
			continue
		}
		s.ack(req, from)
	}
}

func TestLoadgenWindowAndAckAccounting(t *testing.T) {
	for _, batch := range []int{1, 16} {
		stub := newStubStore(t, window, 0)
		g, err := newLoadgen(stub.conn.LocalAddr(), 42, batch)
		if err != nil {
			t.Fatal(err)
		}
		lease, err := g.run(true, flowCount)
		if err != nil || lease.acked != flowCount {
			t.Fatalf("batch %d: lease round acked %d of %d: %v", batch, lease.acked, flowCount, err)
		}
		const dgrams = 3*flowCount + 17
		r, err := g.run(false, dgrams)
		if err != nil {
			t.Fatal(err)
		}
		g.close()
		stub.stop()
		if stub.held != window || stub.extra {
			t.Errorf("batch %d: stub held %d requests (extra beyond window: %v), want exactly the window of %d",
				batch, stub.held, stub.extra, window)
		}
		if r.acked != dgrams || r.retrans != 0 || len(g.lat) != dgrams {
			t.Errorf("batch %d: acked %d retrans %d samples %d, want %d 0 %d", batch, r.acked, r.retrans, len(g.lat), dgrams, dgrams)
		}
		if r.sendDoneNs < r.startNs || r.endNs < r.sendDoneNs {
			t.Errorf("batch %d: round times out of order: %+v", batch, r)
		}
		var total uint64
		for i := range g.flows {
			f := &g.flows[i]
			if f.want.Load() != 0 || f.acked.Load() != f.next {
				t.Fatalf("batch %d flow %d: outstanding %d, acked %d of %d sent", batch, i, f.want.Load(), f.acked.Load(), f.next)
			}
			total += f.next
		}
		if total != uint64(dgrams*batch) {
			t.Errorf("batch %d: flows sent %d writes, want %d", batch, total, dgrams*batch)
		}
		if p50, p99 := g.latencyUs(); p50 <= 0 || p99 < p50 {
			t.Errorf("batch %d: p50 %v p99 %v", batch, p50, p99)
		}
		if g.rejects.Load() != 0 || g.badAcks.Load() != 0 {
			t.Errorf("batch %d: %d rejects, %d bad acks", batch, g.rejects.Load(), g.badAcks.Load())
		}
	}
}

func TestLoadgenRetransmitsLostDatagram(t *testing.T) {
	stub := newStubStore(t, 0, 1)
	g, err := newLoadgen(stub.conn.LocalAddr(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	if r, err := g.run(true, flowCount); err != nil || r.acked != flowCount {
		t.Fatalf("lease round: %+v %v", r, err)
	}
	r, err := g.run(false, 2*window)
	if err != nil {
		t.Fatal(err)
	}
	if r.acked != 2*window || r.retrans < 1 {
		t.Errorf("acked %d retrans %d, want %d acked after at least one retransmission", r.acked, r.retrans, 2*window)
	}
}

func TestFlowKeysFollowSeed(t *testing.T) {
	a, b, c := flowKeys(3, flowCount), flowKeys(3, flowCount), flowKeys(4, flowCount)
	distinct := map[any]bool{}
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs between two derivations from one seed", i)
		}
		if a[i] == c[i] {
			same++
		}
		distinct[a[i]] = true
	}
	if len(distinct) != flowCount {
		t.Errorf("%d distinct keys, want %d", len(distinct), flowCount)
	}
	if same > flowCount/100 {
		t.Errorf("%d of %d keys agree between seeds 3 and 4", same, flowCount)
	}
}

// TestWorkloadSmoke runs one measured round of every workload, traced, and
// checks that it verifies its outputs and reports every declared metric.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload; skipped under -short and -race")
	}
	tr := newTracer()
	root := tr.begin("run", 0, -1)
	for _, w := range workloads {
		cfg := runConfig{seed: 5, rounds: 2, trace: w.name == "chain3-wal-pkt" || w.sim, outDir: t.TempDir()}
		res, err := runWorkload(w, cfg, tr, root)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || res.Rounds != 2 {
			t.Errorf("%s: correct %v failed %d attempted %d rounds %d problems %v",
				w.name, res.Correct, res.Failed, res.Attempted, res.Rounds, res.Problems)
		}
		for _, d := range endToEnd {
			v, ok := res.EndToEnd[d.name]
			if !ok || v.Unit != d.unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v (reported %v)", w.name, d.name, v, ok)
			}
		}
		if !cfg.trace {
			continue
		}
		for _, d := range perLayer {
			if v, ok := res.PerLayer[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s: %s = %+v (reported %v)", w.name, d.name, v, ok)
			}
		}
		if w.wal {
			if got := res.PerLayer["udp.relays_per_dgram"].Value; got != 2 {
				t.Errorf("%s: udp.relays_per_dgram = %v, want exactly 2", w.name, got)
			}
			for _, n := range []string{"durable.replay_ms", "durable.syncs_per_kwrite", "udp.hop_cpu_us", "store.process_repl_ns"} {
				if !(res.PerLayer[n].Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.name, n, res.PerLayer[n].Value)
				}
			}
		}
		if w.sim {
			for _, n := range []string{"member.failover_stall_us", "member.detect_us", "netsim.events_per_write"} {
				if !(res.PerLayer[n].Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.name, n, res.PerLayer[n].Value)
				}
			}
		}
	}
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{0: true}
	dec := json.NewDecoder(bytes.NewReader(raw))
	spans := 0
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if !ids[s.Parent] || s.EndNs < s.StartNs {
			t.Errorf("span %+v: unknown parent or negative duration", s)
		}
		ids[s.ID] = true
		spans++
	}
	if spans != len(tr.spans) || spans < 20 {
		t.Errorf("trace.jsonl holds %d spans, tracer %d", spans, len(tr.spans))
	}
}
