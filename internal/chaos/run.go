package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netem"
	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/store"
)

// Campaign phase timing. The active phase (faults + traffic) sits
// between a warm-up that establishes leases and a quiescence long enough
// for every lease to expire or renew, every retransmission to settle,
// and the flush writes to converge the store chains.
const (
	warmup   = 30 * time.Millisecond
	quiesce  = 700 * time.Millisecond
	flushLag = 150 * time.Millisecond // after active end, before flush writes

	// Campaign protocol parameters: leases short enough that failovers
	// complete many times within a run.
	leasePeriod    = 200 * time.Millisecond
	snapshotPeriod = 20 * time.Millisecond

	// traceCap sizes the event ring; trace-derived invariants are
	// skipped if the ring ever wraps.
	traceCap = 1 << 18

	// leaseProbe is how often the single-lease-holder invariant samples
	// switch lease state.
	leaseProbe = time.Millisecond

	// minOps guards against vacuous passes: a run completing fewer ops
	// than this is itself a violation ("progress").
	minOps = 50
)

// runResult is one deterministic run's outcome.
type runResult struct {
	Violations []Violation
	Ops        int
	dep        *redplane.Deployment // for trace dumps; nil unless kept
}

// Run executes one campaign: generate the schedule from the seed, run
// it, and on violation shrink to a minimal repro.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	faults := Generate(cfg)
	res := Result{
		Seed: cfg.Seed, Engine: cfg.Engine, Mode: cfg.ModeName(),
		Profile:  cfg.Profile.Name,
		Duration: cfg.Duration, Chains: cfg.Chains, Faults: faults,
	}
	r := runOnce(cfg, faults)
	res.Ops = r.Ops
	res.Violations = r.Violations
	if len(r.Violations) > 0 {
		shrunk, vio := Shrink(cfg, faults)
		res.Shrunk, res.Violations = shrunk, vio
	}
	return res
}

// Replay re-runs an explicit fault schedule (a loaded repro) without
// shrinking.
func Replay(cfg Config, faults []Fault) Result {
	cfg = cfg.withDefaults()
	r := runOnce(cfg, faults)
	return Result{
		Seed: cfg.Seed, Engine: cfg.Engine, Mode: cfg.ModeName(),
		Profile:  cfg.Profile.Name,
		Duration: cfg.Duration, Chains: cfg.Chains, Faults: faults,
		Ops: r.Ops, Violations: r.Violations,
	}
}

// DumpTrace re-runs the schedule and writes its obs event trace as
// JSONL — the companion artifact to a violation dump.
func DumpTrace(cfg Config, faults []Fault, w io.Writer, run string) error {
	cfg = cfg.withDefaults()
	r := runOnceKeep(cfg, faults)
	tr := r.dep.Observe().Tracer()
	if tr == nil {
		return fmt.Errorf("no tracer")
	}
	return tr.WriteJSONL(w, run)
}

func runOnce(cfg Config, faults []Fault) runResult {
	r := runOnceKeep(cfg, faults)
	r.dep = nil
	return r
}

// NeedsDurability decides whether a run deploys the store's persistence
// layer and membership coordinator: any cold-crash exposure requires
// them (servers would otherwise recover empty-handed). Scanning the
// faults — not just the profile — keeps replays of shrunk repros
// faithful even when the profile is unknown. Exported so callers know
// when DumpDurable applies to a campaign.
func NeedsDurability(cfg Config, faults []Fault) bool {
	if cfg.Profile.PCold > 0 {
		return true
	}
	for _, f := range faults {
		if f.Store && f.Cold {
			return true
		}
	}
	return false
}

// DumpDurable re-runs the schedule and writes every store server's
// durable backend — WAL segments and checkpoints — under dir, one
// subdirectory per server. It is the post-mortem companion to a
// violation dump for durable campaigns.
func DumpDurable(cfg Config, faults []Fault, dir string) error {
	cfg = cfg.withDefaults()
	r := runOnceKeep(cfg, faults)
	d := r.dep
	if d.Cluster == nil || d.StoreBackend(0, 0) == nil {
		return fmt.Errorf("run has no durable backends (durability off)")
	}
	for sh := 0; sh < d.Cluster.Shards(); sh++ {
		for rep := 0; rep < d.Cluster.Replicas(); rep++ {
			files := d.StoreBackend(sh, rep).Files()
			sub := filepath.Join(dir, fmt.Sprintf("store-%d-%d", sh, rep))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return err
			}
			names := make([]string, 0, len(files))
			for n := range files {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if err := os.WriteFile(filepath.Join(sub, n), files[n], 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runOnceKeep is the deterministic heart of the engine: (cfg, faults) →
// verdict, with the deployment retained for trace extraction.
func runOnceKeep(cfg Config, faults []Fault) runResult {
	if cfg.Bounded {
		return runBounded(cfg, faults)
	}
	return runLinearizable(cfg, faults)
}

// hasMoves reports whether the schedule injects flow-space migrations
// (which require ring routing and the coordinator).
func hasMoves(faults []Fault) bool {
	for _, f := range faults {
		if f.Move {
			return true
		}
	}
	return false
}

// storeShape resolves a campaign's store layout: shard count and
// whether requests route through the consistent-hash ring. Scanning the
// faults (like NeedsDurability) keeps shrunk-repro replays faithful.
func storeShape(cfg Config, faults []Fault) (shards int, ring bool) {
	shards = cfg.Chains
	if shards < 1 {
		shards = storeShards
	}
	return shards, cfg.Ring || shards > 1 || hasMoves(faults)
}

// netemFaults reports whether the schedule installs link conditions
// (gray failures, one-way partitions).
func netemFaults(faults []Fault) bool {
	for _, f := range faults {
		if f.Gray || f.OneWay {
			return true
		}
	}
	return false
}

// netemConfig resolves a campaign's network-emulation config from its
// profile and schedule. Scanning the faults (like NeedsDurability)
// keeps shrunk-repro replays faithful even when the profile is unknown.
// A fully zero config keeps the deployment byte-identical to pre-netem
// campaigns — that is what makes legacy repro dumps stable.
func netemConfig(cfg Config, faults []Fault) netem.Config {
	p := cfg.Profile
	return netem.Config{
		Seed:           cfg.Seed,
		ClockDriftPPM:  p.SkewDriftPPM,
		ClockOffsetMax: p.SkewOffsetMax,
		Topology:       netem.Topology{DCs: p.WANDCs, InterDCRTT: p.WANInterDCRTT},
		Faults:         netemFaults(faults),
	}
}

// tuneProtoForNetEm adapts protocol timing to the campaign's emulated
// network: a WAN topology needs a lease guard at least the topology's
// floor (the grant path now spans inter-DC crossings) and a retransmit
// timeout beyond the cross-site ack round trip. BreakSkewMargin then
// deliberately undersizes the guard below the 2ρP the skew profile's
// drift consumes — the violation the harness must catch.
func tuneProtoForNetEm(proto *redplane.ProtocolConfig, cfg Config) {
	p := cfg.Profile
	if p.WANDCs > 1 {
		wan := netem.Topology{DCs: p.WANDCs, InterDCRTT: p.WANInterDCRTT}
		if floor := wan.LeaseGuardFloor(); proto.LeaseGuard < floor {
			proto.LeaseGuard = floor
		}
		if rt := 3*p.WANInterDCRTT + 2*time.Millisecond; proto.RetransTimeout < rt {
			proto.RetransTimeout = rt
		}
	}
	if cfg.BreakSkewMargin {
		proto.LeaseGuard = 500 * time.Microsecond
	}
}

// scheduleNetem installs the schedule's link-condition injections:
// gray shapes and one-way cuts applied at FailAt and healed at
// RecoverAt through the deployment's typed netem helpers.
func scheduleNetem(d *redplane.Deployment, faults []Fault) {
	for _, f := range faults {
		if !f.Gray && !f.OneWay {
			continue
		}
		f := f
		d.Sim.At(netsim.Duration(f.FailAt), func() {
			if f.Gray {
				shape := netem.DefaultGrayShape()
				d.SetStoreGray(f.Shard, f.Replica, &shape)
			} else {
				d.SetStoreOneWay(f.Shard, f.Replica, f.Inbound, true)
			}
		})
		if f.RecoverAt > 0 {
			d.Sim.At(netsim.Duration(f.RecoverAt), func() {
				if f.Gray {
					d.SetStoreGray(f.Shard, f.Replica, nil)
				} else {
					d.SetStoreOneWay(f.Shard, f.Replica, f.Inbound, false)
				}
			})
		}
	}
}

// scheduleMoves installs the schedule's migration injections: at each
// move fault's time the coordinator moves the arc holding one workload
// partition key (flowOf maps the abstract slot to the running mode's
// key space) to the fault's destination chain. A move refused because
// another is still draining is simply skipped — the generator does not
// serialize move times, and a dropped injection never weakens a
// verdict.
func scheduleMoves(d *redplane.Deployment, faults []Fault, flowOf func(slot int) packet.FiveTuple) {
	for _, f := range faults {
		if !f.Move {
			continue
		}
		f := f
		d.Sim.At(netsim.Duration(f.FailAt), func() {
			if d.Coordinator != nil && d.FlowTable != nil {
				_ = d.Coordinator.MoveKeyArc(flowOf(f.MoveKey), f.MoveTo%d.FlowTable.Chains())
			}
		})
	}
}

func runLinearizable(cfg Config, faults []Fault) runResult {
	proto := redplane.DefaultProtocolConfig()
	proto.LeasePeriod = leasePeriod
	proto.RenewInterval = leasePeriod / 2
	if cfg.BatchWindow > 0 {
		proto.FlushWindow = cfg.BatchWindow
	}
	tuneProtoForNetEm(&proto, cfg)

	durableRun := NeedsDurability(cfg, faults)
	shards, ring := storeShape(cfg, faults)
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:            cfg.Seed,
		NewApp:          func(int) redplane.App { return &apps.KVStore{} },
		Mode:            redplane.Linearizable,
		Protocol:        proto,
		Replication:     redplane.ReplicationConfig{Engine: cfg.Engine},
		RecordJournal:   true,
		Obs:             redplane.ObsConfig{TraceEvents: traceCap},
		Ablation:        redplane.AblationConfig{StoreNoRevoke: cfg.BreakNoRevoke},
		StoreShards:     shards,
		FlowSpace:       ring,
		StoreDurability: store.DurabilityConfig{Enabled: durableRun},
		StoreMembership: durableRun,
		NetEm:           netemConfig(cfg, faults),
	})
	d.ScheduleFaultEvents(compile(faults))
	scheduleNetem(d, faults)
	scheduleMoves(d, faults, func(slot int) packet.FiveTuple {
		return apps.KVPartitionKey(uint64(slot % numKeys))
	})

	drv := newKVDriver(d, cfg.Seed)
	activeEnd := netsim.Duration(warmup + cfg.Duration)
	end := activeEnd + netsim.Duration(quiesce)
	drv.start(activeEnd)

	// Single-lease-holder probe: with the switch-side lease guard no two
	// switches may believe they hold the same flow's lease at once.
	var vio []Violation
	d.Sim.Every(netsim.Duration(warmup), netsim.Duration(leaseProbe), func() bool {
		for key := uint64(0); key < numKeys; key++ {
			holders := 0
			part := apps.KVPartitionKey(key)
			for i := 0; i < d.Switches(); i++ {
				if d.Switch(i).HasLease(part) {
					holders++
				}
			}
			if holders > 1 && len(vio) < 16 {
				vio = append(vio, Violation{
					Invariant: "lease-exclusion",
					Detail: fmt.Sprintf("key %d held by %d switches at t=%v",
						key, holders, time.Duration(d.Now())),
				})
			}
		}
		return d.Now() < end
	})

	// Flush writes after every fault has recovered (store recoveries are
	// bounded by the active phase) so each key's chain re-converges even
	// if its last organic write died with a crashed replica.
	d.Sim.At(activeEnd+netsim.Duration(flushLag), func() {
		drv.flushAll(end - netsim.Duration(100*time.Millisecond))
	})

	d.RunFor(time.Duration(end))

	res := runResult{dep: d, Ops: drv.completed()}
	res.Violations = vio
	if res.Ops < minOps {
		res.Violations = append(res.Violations, Violation{
			Invariant: "progress",
			Detail:    fmt.Sprintf("only %d ops completed (min %d)", res.Ops, minOps),
		})
	}

	// Per-key linearizability of the recorded histories.
	for key, hist := range drv.histories() {
		if err := CheckRegister(hist, 0); err != nil {
			res.Violations = append(res.Violations, Violation{
				Invariant: "linearizability",
				Detail:    fmt.Sprintf("key %d: %v", key, err),
			})
		}
	}

	res.Violations = append(res.Violations, checkJournal(d)...)
	res.Violations = append(res.Violations, checkTraceSeqs(d, faults)...)
	res.Violations = append(res.Violations, checkStoreInvariants(d)...)
	return res
}

// checkJournal verifies no acknowledged write was lost: every write the
// chain tail acknowledged must still be covered by tail state after
// quiescence, and no sequence number may have been acknowledged twice
// with different values (two switches both believing they owned the
// flow).
func checkJournal(d *redplane.Deployment) []Violation {
	var vio []Violation
	type keySeq struct {
		key redplane.FiveTuple
		seq uint64
	}
	seen := make(map[keySeq][]uint64)
	maxSeq := make(map[redplane.FiveTuple]redplane.JournalEntry)
	for _, e := range d.Journal.Entries() {
		ks := keySeq{e.Key, e.Seq}
		if prev, ok := seen[ks]; ok && !valsEqual(prev, e.Vals) {
			vio = append(vio, Violation{
				Invariant: "lost-write",
				Detail: fmt.Sprintf("flow %v seq %d acknowledged twice with different values %v vs %v",
					e.Key, e.Seq, prev, e.Vals),
			})
		}
		seen[ks] = e.Vals
		if m, ok := maxSeq[e.Key]; !ok || e.Seq > m.Seq {
			maxSeq[e.Key] = e
		}
	}
	keys := make([]redplane.FiveTuple, 0, len(maxSeq))
	for k := range maxSeq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
	for _, k := range keys {
		e := maxSeq[k]
		sh := d.Cluster.ShardFor(k)
		vals, lastSeq, ok := d.Cluster.Tail(sh).Shard().State(k)
		if !ok || lastSeq < e.Seq {
			vio = append(vio, Violation{
				Invariant: "lost-write",
				Detail: fmt.Sprintf("flow %v: acknowledged seq %d but tail has seq %d (exists=%v)",
					k, e.Seq, lastSeq, ok),
			})
			continue
		}
		if lastSeq == e.Seq && !valsEqual(vals, e.Vals) {
			vio = append(vio, Violation{
				Invariant: "lost-write",
				Detail: fmt.Sprintf("flow %v seq %d: acknowledged values %v but tail has %v",
					k, e.Seq, e.Vals, vals),
			})
		}
	}
	return vio
}

// checkTraceSeqs verifies per-flow replication-ack sequence numbers are
// non-decreasing in trace order. The store serializes each flow and the
// zero-jitter fabric delivers protocol frames along fixed equal-length
// FIFO paths, so any regression means the store accepted out-of-order
// state. Skipped if the trace ring wrapped — and for schedules that
// install gray shapes, whose per-frame delay jitter legitimately
// reorders protocol frames in flight (the FIFO premise is gone; the
// journal and linearizability checkers still verify real correctness).
func checkTraceSeqs(d *redplane.Deployment, faults []Fault) []Violation {
	for _, f := range faults {
		if f.Gray {
			return nil
		}
	}
	tr := d.Observe().Tracer()
	if tr == nil || tr.Dropped() > 0 {
		return nil
	}
	last := make(map[string]uint64)
	var vio []Violation
	for _, e := range tr.Events() {
		if e.Type != obs.EvReplAck || e.Flow == "" {
			continue
		}
		if prev, ok := last[e.Flow]; ok && e.Seq < prev && len(vio) < 16 {
			vio = append(vio, Violation{
				Invariant: "monotonic-seq",
				Detail: fmt.Sprintf("flow %s: ack seq %d after %d at t=%v",
					e.Flow, e.Seq, prev, time.Duration(e.T)),
			})
		}
		last[e.Flow] = e.Seq
	}
	return vio
}

// checkStoreInvariants runs the quiescence-time store checks: chain
// replica agreement and the overlapping-grant counter.
func checkStoreInvariants(d *redplane.Deployment) []Violation {
	var vio []Violation
	if err := d.ChainAgreement(); err != nil {
		vio = append(vio, Violation{Invariant: "chain-agreement", Detail: err.Error()})
	}
	if n := d.Snapshot().Totals.StoreOverlappingGrants; n > 0 {
		vio = append(vio, Violation{
			Invariant: "overlapping-grant",
			Detail:    fmt.Sprintf("store granted %d leases while another lease was active", n),
		})
	}
	return vio
}

func runBounded(cfg Config, faults []Fault) runResult {
	drv, d := newBoundedDriver(cfg, faults)
	activeEnd := netsim.Duration(warmup + cfg.Duration)
	end := activeEnd + netsim.Duration(quiesce)
	drv.start(activeEnd)
	d.RunFor(time.Duration(end))

	res := runResult{dep: d, Ops: drv.sent}
	if drv.sent < minOps {
		res.Violations = append(res.Violations, Violation{
			Invariant: "progress",
			Detail:    fmt.Sprintf("only %d packets offered (min %d)", drv.sent, minOps),
		})
	}

	// Staleness bound: for every switch that survived with its memory
	// and connectivity, the store's snapshot image must equal the
	// switch's live array after quiescence — the last snapshot period
	// saw no updates, so nothing may be missing — and the image must be
	// fresh within the snapshot cadence. Excluded: fail-stopped switches
	// (state semantics reset) and permanently link-partitioned ones —
	// a partitioned switch's image legitimately freezes, trailing its
	// live array by up to one snapshot period of updates, which is
	// precisely the ε-loss bounded-inconsistency mode permits (§4.4).
	excluded := make(map[int]bool)
	for _, f := range faults {
		if !f.Store && (!f.LinkOnly || f.RecoverAt == 0) {
			excluded[f.Agg] = true
		}
	}
	for i, c := range drv.counters {
		if excluded[i] {
			continue // its replicated image legitimately trails its history
		}
		part := packet.FiveTuple{Src: packet.Addr(i), SrcPort: 0xAC, Proto: packet.ProtoUDP}
		sh := d.Cluster.ShardFor(part)
		img, at := d.Cluster.Head(sh).Shard().LastSnapshot(part)
		want := counterSum(c)
		if want == 0 {
			continue // ECMP may steer no flows through this switch
		}
		if img == nil {
			res.Violations = append(res.Violations, Violation{
				Invariant: "staleness",
				Detail:    fmt.Sprintf("switch %d: no snapshot image at store", i),
			})
			continue
		}
		if got := imageSum(img); got != want {
			res.Violations = append(res.Violations, Violation{
				Invariant: "staleness",
				Detail: fmt.Sprintf("switch %d: store image sums %d, switch array sums %d after quiescence",
					i, got, want),
			})
		}
		// T_snap freshness: the generator keeps emitting snapshots, so
		// the newest image must be no older than two periods plus the
		// chain's propagation slack.
		bound := int64(end) - int64(2*snapshotPeriod+50*time.Millisecond)
		if at < bound {
			res.Violations = append(res.Violations, Violation{
				Invariant: "staleness",
				Detail: fmt.Sprintf("switch %d: newest image at t=%v, staleness bound t=%v",
					i, time.Duration(at), time.Duration(bound)),
			})
		}
	}
	res.Violations = append(res.Violations, checkStoreInvariants(d)...)
	return res
}

func valsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
