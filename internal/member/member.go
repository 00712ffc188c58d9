// Package member is the replication-group membership coordinator: the
// paper's trusted configuration service (the role Zookeeper plays for
// NetChain) that keeps each shard's replication group made of live
// servers, whichever engine (chain or quorum; see internal/repl) the
// group runs.
//
// The coordinator probes replica liveness on a fixed interval (the
// probe interval is its detection latency). When a group member is
// dead it issues a new view that splices the member out, preserving the
// order of the survivors — losing the head promotes the next replica,
// losing the tail promotes its predecessor. How small a view it will
// install depends on the engine's fault envelope: a chain serves
// correctly from any non-empty survivor set (every acknowledged write
// reached every member), but a quorum group only guarantees an
// acknowledged write on SOME majority, so the coordinator never
// installs a quorum view smaller than a majority of the full replica
// set — a minority survivor may simply have missed the write, and
// seating it as leader would discard the write from the recovering
// majority members at rejoin. Views are fenced by number:
// every engine message carries its sender's view (repl.Msg.ViewNum) and
// receivers drop other views' messages, so a spliced-out replica that
// is still draining its queues cannot mutate the group or release
// acknowledgments.
//
// A recovered replica rejoins at the end of the member list. After a
// resync delay (modeling the state transfer) it clones the engine's
// resync source — the tail for chain, the leader for quorum (see
// Cluster.ResyncSource) — adopting the group's truth wholesale, which
// may discard updates the rejoiner logged but the group never
// acknowledged (legal: unacked writes carry no durability promise) —
// and is spliced in only once its digest agrees with the source's.
// Rejoining resets the replica's checkpoint, because a clone bypasses
// the WAL.
//
// Safety leans on the store's group-commit ordering: every replica
// fsyncs before forwarding downstream or acknowledging, so any
// replica's durable state is a superset of all acknowledged writes it
// has seen, and a chain of cold-restarted members recovers every
// acknowledged write from checkpoint + WAL alone.
package member

import (
	"fmt"
	"time"

	"redplane/internal/flowspace"
	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/store"
)

// DefaultProbeInterval is the liveness probe cadence when Config leaves
// it zero.
const DefaultProbeInterval = 2 * time.Millisecond

// DefaultResyncDelay models the rejoin state transfer when Config
// leaves it zero.
const DefaultResyncDelay = 2 * time.Millisecond

// DefaultMigrationDrain models the fence-to-flip window of a live
// migration when Config leaves it zero. It must comfortably exceed the
// longest path an already-launched packet can take to reach acked state
// (switch→head propagation + full-chain forwarding + fsync, plus one
// queue-limit worth of backlog), so that when the drain expires the
// source chain's resync source holds every acked write for the range.
const DefaultMigrationDrain = 5 * time.Millisecond

// DefaultRebalanceTheta is the hot-chain trigger when Config leaves it
// zero: the rebalancer plans a move once the hottest chain's load
// exceeds theta times the mean.
const DefaultRebalanceTheta = 1.25

// Config parameterizes the coordinator.
type Config struct {
	// ProbeInterval is how often replica liveness is checked; it bounds
	// failure-detection latency.
	ProbeInterval time.Duration
	// ResyncDelay is how long a recovered replica's catch-up transfer
	// takes before it can be re-spliced.
	ResyncDelay time.Duration
	// Table, when non-nil, gives the coordinator flow-space duties:
	// live migrations (StartMove/MoveKeyArc) and, with RebalanceEvery
	// set, the skew-aware rebalancer. It must be the same table the
	// cluster routes by (Cluster.UseTable) — the coordinator is the only
	// writer of ring state; everything else only reads it.
	Table *flowspace.Table
	// MigrationDrain is how long a move's key range stays fenced before
	// the state transfer and epoch flip (see DefaultMigrationDrain).
	MigrationDrain time.Duration
	// RebalanceEvery is the skew-aware rebalancer's cadence; zero
	// disables it (migrations can still be driven via StartMove).
	RebalanceEvery time.Duration
	// RebalanceTheta is the imbalance trigger passed to
	// flowspace.Table.PlanRebalance each rebalance tick.
	RebalanceTheta float64
}

// Stats is a point-in-time snapshot of coordinator activity.
type Stats struct {
	ViewChanges uint64
	SpliceOuts  uint64
	Rejoins     uint64
	Resyncs     uint64
	ResyncFlows uint64

	// Flow-space migration activity (zero unless Config.Table was set).
	Migrations      uint64 // moves begun (range fenced)
	MigrationOK     uint64 // moves committed (epoch flipped)
	MigrationAborts uint64 // moves rolled back (view moved / member died)
	Splits          uint64 // pure arc splits applied by the rebalancer
	MigratedFlows   uint64 // flows transferred by committed moves
}

// Coordinator watches a store cluster and drives its chain views. It
// runs entirely inside the simulator's event loop.
type Coordinator struct {
	sim     *netsim.Sim
	cluster *store.Cluster
	cfg     Config

	// minView is the smallest survivor set the coordinator may install as
	// a view. Chain tolerates n-1 failures, so any non-empty set works
	// (minView 1); the quorum engine requires a majority of the FULL
	// replica set (see the package comment): promoting a smaller set
	// could seat a leader that missed a majority-acknowledged write, and
	// the rejoin clone would then discard that write from the recovering
	// majority members that durably hold it.
	minView int

	// resyncing[shard][replica] marks an in-flight rejoin transfer so a
	// replica is not resynced twice concurrently.
	resyncing []map[int]bool

	// table is the flow-space ring the coordinator migrates and
	// rebalances (nil when the deployment routes statically); mig is the
	// in-flight migration, nil between moves.
	table *flowspace.Table
	mig   *migration

	viewChanges *obs.Counter
	spliceOuts  *obs.Counter
	rejoins     *obs.Counter
	resyncs     *obs.Counter
	resyncFlows *obs.Counter

	migrations      *obs.Counter
	migrationOK     *obs.Counter
	migrationAborts *obs.Counter
	splits          *obs.Counter
	migratedFlows   *obs.Counter
	chainLoads      []*obs.Gauge

	tr *obs.Tracer
}

// New creates a coordinator for cluster. Call Start to begin probing.
func New(sim *netsim.Sim, cluster *store.Cluster, cfg Config) *Coordinator {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ResyncDelay == 0 {
		cfg.ResyncDelay = DefaultResyncDelay
	}
	if cfg.MigrationDrain == 0 {
		cfg.MigrationDrain = DefaultMigrationDrain
	}
	if cfg.RebalanceTheta == 0 {
		cfg.RebalanceTheta = DefaultRebalanceTheta
	}
	reg := sim.Observer()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	minView := MinView(cluster.Engine(), cluster.Replicas())
	ns := reg.NS("member")
	co := &Coordinator{
		sim: sim, cluster: cluster, cfg: cfg, minView: minView,
		resyncing:   make([]map[int]bool, cluster.Shards()),
		table:       cfg.Table,
		viewChanges: ns.Counter("view_changes"),
		spliceOuts:  ns.Counter("splice_outs"),
		rejoins:     ns.Counter("rejoins"),
		resyncs:     ns.Counter("resyncs"),
		resyncFlows: ns.Counter("resync_flows"),

		migrations:      ns.Counter("migrations"),
		migrationOK:     ns.Counter("migration_commits"),
		migrationAborts: ns.Counter("migration_aborts"),
		splits:          ns.Counter("migration_splits"),
		migratedFlows:   ns.Counter("migrated_flows"),

		tr: reg.Tracer(),
	}
	for sh := range co.resyncing {
		co.resyncing[sh] = make(map[int]bool)
	}
	if co.table != nil {
		// One load gauge per possible chain (chains can grow up to the
		// shard count as the rebalancer or a join adds ring points).
		co.chainLoads = make([]*obs.Gauge, cluster.Shards())
		for c := range co.chainLoads {
			co.chainLoads[c] = ns.Gauge(fmt.Sprintf("chain_load_%d", c))
		}
	}
	return co
}

// Start schedules the liveness probe. The probe runs forever (the
// coordinator is infrastructure, not workload).
func (co *Coordinator) Start() {
	period := netsim.Duration(co.cfg.ProbeInterval)
	co.sim.Every(co.sim.Now()+period, period, func() bool {
		for sh := 0; sh < co.cluster.Shards(); sh++ {
			co.probeShard(sh)
		}
		return true
	})
	if co.table != nil && co.cfg.RebalanceEvery > 0 {
		rp := netsim.Duration(co.cfg.RebalanceEvery)
		co.sim.Every(co.sim.Now()+rp, rp, func() bool {
			co.rebalanceTick()
			return true
		})
	}
}

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	return Stats{
		ViewChanges: co.viewChanges.Value(),
		SpliceOuts:  co.spliceOuts.Value(),
		Rejoins:     co.rejoins.Value(),
		Resyncs:     co.resyncs.Value(),
		ResyncFlows: co.resyncFlows.Value(),

		Migrations:      co.migrations.Value(),
		MigrationOK:     co.migrationOK.Value(),
		MigrationAborts: co.migrationAborts.Value(),
		Splits:          co.splits.Value(),
		MigratedFlows:   co.migratedFlows.Value(),
	}
}

func (co *Coordinator) probeShard(sh int) {
	members := co.cluster.ViewMembers(sh)
	if alive, changed := PlanSplice(members, func(m int) bool {
		return co.cluster.Server(sh, m).Alive()
	}, co.minView); changed {
		// Splice the dead out, preserving survivor order: losing the
		// head promotes the next member, losing the tail promotes its
		// predecessor.
		num := co.cluster.SetView(sh, alive)
		co.spliceOuts.Add(uint64(len(members) - len(alive)))
		co.viewChanges.Inc()
		if co.tr.Active() {
			co.tr.Emit(obs.Event{T: int64(co.sim.Now()), Type: obs.EvViewChange,
				Comp: "member", V: int64(num)})
		}
	}
	// Below minView the view stands. With every member dead there is
	// nobody to resync from; the view holds until a member recovers (its
	// durable state covers all acknowledged writes), at which point the
	// splice above shrinks the chain around it. For quorum, a sub-majority
	// survivor set additionally may not be promoted (see minView): the
	// dead members stay in the view — still fenced to it, unable to ack,
	// so nothing new commits — and the group resumes, then splices, once
	// recoveries bring the live count back to a majority.
	// Recovered non-members rejoin via resync.
	for r := 0; r < co.cluster.Replicas(); r++ {
		if co.resyncing[sh][r] {
			continue
		}
		srv := co.cluster.Server(sh, r)
		if !srv.Alive() || srv.InChain() {
			continue
		}
		co.startResync(sh, r)
	}
}

func (co *Coordinator) startResync(sh, r int) {
	// A rejoin only makes sense against a live resync source.
	members := co.cluster.ViewMembers(sh)
	if len(members) == 0 || !co.cluster.ResyncSource(sh).Alive() {
		return
	}
	co.resyncing[sh][r] = true
	co.resyncs.Inc()
	viewAtStart := co.cluster.ViewNum(sh)
	co.sim.After(co.cfg.ResyncDelay, func() {
		delete(co.resyncing[sh], r)
		co.finishResync(sh, r, viewAtStart)
	})
}

// finishResync completes a rejoin: the recovered replica adopts the
// resync source's state and is spliced in at the end of the member
// list, but only if the world held still — the replica stayed up, the
// view did not move — and its digest agrees with the source's after the
// transfer. Any failed precondition simply aborts; the next probe
// retries.
func (co *Coordinator) finishResync(sh, r int, viewAtStart uint64) {
	if co.cluster.ViewNum(sh) != viewAtStart {
		return
	}
	srv := co.cluster.Server(sh, r)
	if !srv.Alive() || srv.InChain() {
		return
	}
	members := co.cluster.ViewMembers(sh)
	if len(members) == 0 {
		return
	}
	src := co.cluster.ResyncSource(sh)
	if !src.Alive() {
		return
	}
	// The clone is the resync transfer (ResyncDelay modeled its
	// duration); cloning discards any state the rejoiner logged that the
	// group never acknowledged.
	flows := srv.Shard().CloneFrom(src.Shard())
	if srv.Shard().Digest() != src.Shard().Digest() {
		// Digest agreement is the splice-in gate. With an atomic clone it
		// holds by construction; a real implementation transfers deltas
		// and this check is what keeps a botched transfer out of the
		// group.
		return
	}
	num := co.cluster.SetView(sh, PlanRejoin(members, r))
	if d := srv.Durability(); d != nil {
		// The clone bypassed the WAL: until a fresh checkpoint exists,
		// the log does not reconstruct the shard.
		_ = d.ForceCheckpoint(int64(co.sim.Now()))
	}
	co.rejoins.Inc()
	co.viewChanges.Inc()
	co.resyncFlows.Add(uint64(flows))
	if co.tr.Active() {
		now := int64(co.sim.Now())
		co.tr.Emit(obs.Event{T: now, Type: obs.EvResync, Comp: srv.Name(), V: int64(flows)})
		co.tr.Emit(obs.Event{T: now, Type: obs.EvViewChange, Comp: "member", V: int64(num)})
	}
}
