package main

import (
	"runtime"
	"time"
)

// Every size and window of the benchmark is a constant in this file —
// not a flag, not an environment variable — so two runs of one tree do
// the same work.
const (
	// flowCount flows share window outstanding request datagrams: a
	// closed loop in which the next datagram is sent when an
	// acknowledgment frees a slot.
	flowCount = 1024
	window    = 128

	// warmupRounds run after construction and leasing, inside setup_s.
	warmupRounds = 3
	// setupRepeats is how often a run sets the workload up; setup_s is
	// the median, the last set-up is the one measured on.
	setupRepeats = 5

	// leasePeriod outlasts any run, so leases are taken once in set-up.
	leasePeriod = 10 * time.Minute

	// stallTick is the generator's retransmission check: a tick with
	// datagrams outstanding and no acknowledgment since the previous
	// tick re-sends them. roundDeadline fails whatever is still
	// unacknowledged.
	stallTick     = 50 * time.Millisecond
	roundDeadline = 10 * time.Second

	// Best-decile estimator: the ceil(n/bestDecile)-th best round.
	bestDecile = 10

	// The sim-failover round: simFlows flows offered a Poisson stream of
	// simRate packets/s (virtual) for simDuration, the store head cold-
	// crashing a third in and recovering at two thirds; simTail lets the
	// last packets drain. simFaultSlack is how long after a fault event
	// a packet may be lost with its payload (RedPlane retransmits the
	// state update, not the packet); every write must still commit.
	simFlows      = 8
	simRate       = 20000
	simDuration   = 1500 * time.Millisecond
	simWarmup     = 50 * time.Millisecond
	simTail       = 100 * time.Millisecond
	simFaultSlack = 5 * time.Millisecond

	// Direct-call probes: best of probeReps timed loops of probeCalls.
	probeReps  = 5
	probeCalls = 20000
	// probeSyncGroup records share one WAL sync in the durable probe.
	probeSyncGroup = 16
	// hopProbeRounds single-replica rounds give udp.hop_cpu_us.
	hopProbeRounds = 6
)

// workload is one row of the workload table.
type workload struct {
	name, why string
	sim       bool
	replicas  int
	batch     int  // writes per request datagram
	wal       bool // DirBackend WAL per replica
	procs     int  // GOMAXPROCS and, for a single node, shards; 0 = min(nproc, 4)
	dgrams    int  // request datagrams per round (≈0.25 s of work)
}

var workloads = []workload{
	{name: "chain3-pkt", replicas: 3, batch: 1, procs: 1, dgrams: 24 * flowCount,
		why: "3-replica chain, one write per datagram: syscalls, relay hops and per-datagram wire work dominate"},
	{name: "chain3-batch16", replicas: 3, batch: 16, procs: 1, dgrams: 6 * flowCount,
		why: "same chain, 16 writes per datagram: hops amortise, so batch decode, ProcessBatch and coalescing dominate"},
	{name: "chain3-wal-pkt", replicas: 3, batch: 1, wal: true, procs: 1, dgrams: 6 * flowCount,
		why: "chain3-pkt with a WAL per replica: append, group commit and sync-before-relay are on the path"},
	{name: "solo-mp-pkt", replicas: 1, batch: 1, procs: 0, dgrams: 64 * flowCount,
		why: "one node, shards = GOMAXPROCS > 1: the baseline without a chain, where ring hand-off crosses threads"},
	{name: "sim-failover", sim: true, procs: 1,
		why: "simulator chain with WAL and membership through a head crash and rejoin: the other transport of the same layers"},
}

func (w workload) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one metric. BENCHMARK.json repeats these tables; the
// package test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool    // true when a larger value is better
	bound      float64 // regression bound as a share of the parent's median (end-to-end only)
}

// The bounds sit above the run-to-run noise floor measured on a 2-vCPU
// shared VM (NOISE.md): wall-clock and CPU metrics repeat within 1–2 % for
// stretches and drift by 5–12 % for minutes at a time, whatever the
// estimator; allocation counts repeat exactly, so allocs_per_write is the
// metric that resolves a small change.
var endToEnd = []metricDef{
	{"goodput_wps", "1/s", true, 0.15},
	{"commit_p50_us", "us", false, 0.15},
	{"cpu_us_per_write", "us", false, 0.15},
	{"allocs_per_write", "count", false, 0.01},
	{"setup_s", "s", false, 0.25},
}

var perLayer = []metricDef{
	{name: "wire.marshal_ns", unit: "ns"},
	{name: "wire.unmarshal_ns", unit: "ns"},
	{name: "wire.peekkey_ns", unit: "ns"},
	{name: "wire.batch16_unmarshal_ns_per_msg", unit: "ns"},
	{name: "udp.syscalls_per_write", unit: "count"},
	{name: "udp.rx_dgrams_per_batch", unit: "count", higher: true},
	{name: "udp.tx_dgrams_per_batch", unit: "count", higher: true},
	{name: "udp.relays_per_dgram", unit: "count"},
	{name: "udp.sheds", unit: "count"},
	{name: "udp.queue_high", unit: "count"},
	{name: "udp.hop_cpu_us", unit: "us"},
	{name: "udp.sendrecv_ns", unit: "ns"},
	{name: "store.process_repl_ns", unit: "ns"},
	{name: "store.process_batch16_ns_per_msg", unit: "ns"},
	{name: "store.coalesce_ns", unit: "ns"},
	{name: "store.lease_new_ns", unit: "ns"},
	{name: "store.flows", unit: "count"},
	{name: "store.fsyncs_per_write", unit: "count"},
	{name: "durable.append_ns", unit: "ns"},
	{name: "durable.sync_ns", unit: "ns"},
	{name: "durable.syncs_per_kwrite", unit: "count"},
	{name: "durable.wal_bytes_per_write", unit: "B"},
	{name: "durable.replay_ms", unit: "ms"},
	{name: "ring.push_pop_ns", unit: "ns"},
	{name: "netsim.events_per_write", unit: "count"},
	{name: "netsim.ns_per_event", unit: "ns"},
	{name: "sim.build_ms", unit: "ms"},
	{name: "core.retransmits", unit: "count"},
	{name: "member.view_changes", unit: "count"},
	{name: "member.detect_us", unit: "us"},
	{name: "member.failover_stall_us", unit: "us"},
	{name: "go.alloc_bytes_per_write", unit: "B"},
	{name: "go.gc_cycles_per_mwrite", unit: "count"},
	{name: "go.gc_cpu_frac", unit: "ratio"},
	{name: "go.heap_peak_mb", unit: "MB"},
	{name: "loadgen.commit_p99_us", unit: "us"},
	{name: "loadgen.retrans_per_kwrite", unit: "count"},
	{name: "bench.round_cv", unit: "ratio"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "budget.residual_frac", unit: "ratio"},
}
