package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// instance is one set-up workload. The runner asks it for rounds of
// identical fixed work and, at the end, for its output check.
type instance interface {
	// round does round n. It brackets the measured part with m.start
	// and m.stop; with a tracer it records the round's spans.
	round(m *meter, tr *tracer, parent, n int) (roundSample, error)
	// mark notes the layer counters as the measured rounds begin.
	mark()
	// layers adds the workload's own per-layer metrics, taken over the
	// measured rounds, to out.
	layers(out map[string]float64, rounds []roundSample)
	// verify checks the outputs and returns the operations that failed it.
	verify(tr *tracer, parent int) (failed int64, problems []string)
	// close releases sockets, goroutines and files.
	close()
}

// roundSample is what one round measured.
type roundSample struct {
	traced            bool
	attempted, writes int64 // writes offered, writes acknowledged
	wallNs, cpuNs     float64
	mallocs, bytes    uint64
	gcCycles          uint32
	gcCPUNs           float64
	heapInuse         uint64
	p50us, p99us      float64
	retrans           int64
	// sim holds sim-failover's own per-round readings.
	sim *simRound
}

// meter reads the process-wide clocks and counters at the two ends of a
// round's measured window.
type meter struct {
	ms            runtime.MemStats
	gcSample      [1]metrics.Sample
	t0            time.Time
	cpu0, gcCPU0  float64
	mallocs0      uint64
	bytes0        uint64
	gcCycles0     uint32
	sample        roundSample
	windowStarted bool
}

func newMeter() *meter {
	m := &meter{}
	m.gcSample[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	return m
}

// cpuNs is the process's user+system CPU time.
func cpuNs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) gcCPU() float64 {
	metrics.Read(m.gcSample[:])
	if m.gcSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return m.gcSample[0].Value.Float64() * 1e9
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.mallocs0, m.bytes0, m.gcCycles0 = m.ms.Mallocs, m.ms.TotalAlloc, m.ms.NumGC
	m.gcCPU0 = m.gcCPU()
	m.cpu0 = cpuNs()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	wall := time.Since(m.t0)
	cpu := cpuNs()
	gc := m.gcCPU()
	runtime.ReadMemStats(&m.ms)
	m.sample = roundSample{
		wallNs: float64(wall), cpuNs: cpu - m.cpu0,
		mallocs: m.ms.Mallocs - m.mallocs0, bytes: m.ms.TotalAlloc - m.bytes0,
		gcCycles: m.ms.NumGC - m.gcCycles0, gcCPUNs: gc - m.gcCPU0,
		heapInuse: m.ms.HeapInuse,
	}
}

// metricValue is one reported number with what qualifies it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Rounds and CV say how many rounds stand behind an estimate and how
	// far they disagreed (zero for totals and counts).
	Rounds int     `json:"rounds,omitempty"`
	CV     float64 `json:"round_cv,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload   string                 `json:"workload"`
	Why        string                 `json:"why"`
	Seed       int64                  `json:"seed"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Load       string                 `json:"load"`
	Rounds     int                    `json:"rounds"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Problems   []string               `json:"problems,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	// Budget is the traced run's write budget: ns of CPU per acknowledged
	// write attributed to each layer by its probe.
	Budget map[string]float64 `json:"write_budget_ns,omitempty"`
	// PerRound lists what the estimators saw: each untraced round's
	// goodput, median commit latency and CPU per write, in round order.
	PerRound map[string][]float64 `json:"per_round"`
}

// runConfig is what the flags choose for a run.
type runConfig struct {
	seed    int64
	seconds float64 // measure for at least this long...
	// ...or, when rounds > 0, exactly that many rounds after a single
	// set-up with a single warm-up round: the package test's smoke.
	rounds int
	trace  bool
	outDir string
}

// runWorkload sets w up setupRepeats times, measures rounds on the last
// set-up, checks the outputs and derives the metrics.
func runWorkload(w workload, cfg runConfig, tr *tracer, parent int) (res result, err error) {
	prev := runtime.GOMAXPROCS(w.gomaxprocs())
	defer runtime.GOMAXPROCS(prev)
	res = result{Workload: w.name, Why: w.why, Seed: cfg.seed, GOMAXPROCS: w.gomaxprocs()}
	wspan := tr.begin("workload:"+w.name, parent, -1)
	defer tr.end(wspan)
	m := newMeter()

	repeats, warmups := setupRepeats, warmupRounds
	if cfg.rounds > 0 {
		repeats, warmups = 1, 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		sp := tr.begin("setup", wspan, -1)
		t0 := time.Now()
		inst, err = setUp(w, cfg, &res)
		if err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for r := 0; r < warmups; r++ {
			if _, err = inst.round(m, nil, 0, -1); err != nil {
				inst.close()
				return res, fmt.Errorf("%s: warm-up: %w", w.name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
	}
	defer inst.close()

	inst.mark()
	var rounds []roundSample
	began := time.Now()
	for n := 0; ; n++ {
		if cfg.rounds > 0 {
			if n >= cfg.rounds {
				break
			}
		} else if time.Since(began).Seconds() >= cfg.seconds && n >= 2 {
			break
		}
		// A traced run interleaves untraced and traced rounds, so both
		// kinds see the same minutes of the host.
		rtr := tr
		if !cfg.trace || n%2 == 0 {
			rtr = nil
		}
		runtime.GC()
		s, rerr := inst.round(m, rtr, wspan, n)
		if rerr != nil {
			return res, fmt.Errorf("%s: round %d: %w", w.name, n, rerr)
		}
		s.traced = rtr != nil
		rounds = append(rounds, s)
		res.Attempted += s.attempted
		res.Failed += s.attempted - s.writes
		if s.writes < s.attempted {
			res.Problems = append(res.Problems,
				fmt.Sprintf("round %d: %d of %d writes unacknowledged", n, s.attempted-s.writes, s.attempted))
			break
		}
	}
	res.Rounds = len(rounds)

	failed, problems := inst.verify(tr, wspan)
	res.Failed += failed
	res.Problems = append(res.Problems, problems...)
	res.Correct = res.Failed == 0 && len(res.Problems) == 0

	derive(&res, w, cfg, inst, rounds, setups, tr, wspan)
	return res, nil
}

func setUp(w workload, cfg runConfig, res *result) (instance, error) {
	if w.sim {
		res.Load = fmt.Sprintf("open loop: %d flows, Poisson arrivals at %d packets/s of virtual time for %v, store head crash at 1/3, rejoin at 2/3",
			simFlows, simRate, simDuration)
		return newSimInstance(cfg.seed), nil
	}
	res.Load = fmt.Sprintf("closed loop: %d datagrams of %d write(s) outstanding over %d flows, next datagram sent when an ack frees a slot; %d datagrams per round",
		window, w.batch, flowCount, w.dgrams)
	return newUDPInstance(w, cfg.seed, cfg.outDir, res)
}

// derive turns the rounds into the named metrics.
func derive(res *result, w workload, cfg runConfig, inst instance, rounds []roundSample,
	setups []float64, tr *tracer, wspan int) {
	// End-to-end numbers come from untraced rounds only.
	var plain, traced []roundSample
	for _, s := range rounds {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	col := func(rs []roundSample, f func(roundSample) float64) []float64 {
		v := make([]float64, len(rs))
		for i, s := range rs {
			v[i] = f(s)
		}
		return v
	}
	// per is a/b, reading 0 when nothing was acknowledged.
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	goodput := col(plain, func(s roundSample) float64 { return per(float64(s.writes), s.wallNs/1e9) })
	p50 := col(plain, func(s roundSample) float64 { return s.p50us })
	cpu := col(plain, func(s roundSample) float64 { return per(s.cpuNs/1e3, float64(s.writes)) })
	var writes, mallocs, bytes, gcCycles, retrans, gcCPU, cpuTotal float64
	var heapPeak uint64
	for _, s := range plain {
		writes += float64(s.writes)
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
		gcCycles += float64(s.gcCycles)
		retrans += float64(s.retrans)
		gcCPU += s.gcCPUNs
		cpuTotal += s.cpuNs
		if s.heapInuse > heapPeak {
			heapPeak = s.heapInuse
		}
	}
	n := len(plain)
	res.EndToEnd = map[string]metricValue{
		"goodput_wps":      {Value: bestHigh(goodput), Rounds: n, CV: cv(goodput)},
		"commit_p50_us":    {Value: bestLow(p50), Rounds: n, CV: cv(p50)},
		"cpu_us_per_write": {Value: bestLow(cpu), Rounds: n, CV: cv(cpu)},
		"allocs_per_write": {Value: per(mallocs, writes), Rounds: n},
		"setup_s":          {Value: median(setups), Rounds: len(setups), CV: cv(setups)},
	}
	for _, d := range endToEnd {
		v := res.EndToEnd[d.name]
		v.Unit = d.unit
		res.EndToEnd[d.name] = v
	}
	res.PerRound = map[string][]float64{"goodput_wps": goodput, "commit_p50_us": p50, "cpu_us_per_write": cpu}
	if !cfg.trace {
		return
	}

	layer := map[string]float64{}
	runProbes(layer, cfg, tr, wspan)
	inst.layers(layer, rounds)
	if !w.sim {
		hopProbe(layer, w, cfg, bestLow(cpu), tr, wspan)
		res.Budget = budget(layer, w, bestLow(cpu)*1e3)
	}
	p99 := col(plain, func(s roundSample) float64 { return s.p99us })
	layer["loadgen.commit_p99_us"] = bestLow(p99)
	layer["loadgen.retrans_per_kwrite"] = per(retrans*1e3, writes)
	layer["go.alloc_bytes_per_write"] = per(bytes, writes)
	layer["go.gc_cycles_per_mwrite"] = per(gcCycles*1e6, writes)
	layer["go.gc_cpu_frac"] = per(gcCPU, cpuTotal)
	layer["go.heap_peak_mb"] = float64(heapPeak) / 1e6
	layer["bench.round_cv"] = cv(goodput)
	// Tracing overhead: how much longer the median traced round took than
	// the median untraced round it was interleaved with.
	wallOf := func(s roundSample) float64 { return s.wallNs }
	if len(traced) > 0 && len(plain) > 0 {
		layer["trace.overhead_frac"] = median(col(traced, wallOf))/median(col(plain, wallOf)) - 1
	}
	res.PerLayer = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v := layer[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.PerLayer[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}
