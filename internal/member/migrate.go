package member

import (
	"errors"
	"fmt"
	"sort"

	"redplane/internal/flowspace"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/store"
)

// Live flow-space migration: the coordinator's second job once a
// deployment routes by a flowspace.Table.
//
// A move runs in two phases. BEGIN fences the moving arcs in the
// routing table (epoch bump #1): from that instant the source chains
// drop any request for a fenced key (Server routeCheck), and the
// switch's retransmit path — which re-resolves HeadAddrFor on every
// attempt — keeps each such packet alive until the fence lifts. The
// fence then DRAINS for MigrationDrain, long enough that every packet
// launched before the fence has either reached acked state on its
// source chain or been dropped (and is covered by a pending
// retransmit). At expiry the FLIP runs as one simulator event, so it is
// atomic with respect to all protocol traffic: the coordinator exports
// the fenced ranges from each source chain's resync source (the
// engine's authority: chain tail or quorum leader — acked ⊆ its state
// by the engines' invariants), installs them on every destination view
// member, verifies the transfer with a range digest, tombstones the
// ranges out of the source replicas (WAL-logged, checkpoint-forced, so
// a cold restart cannot resurrect a migrated-away flow), and commits
// the move (epoch bump #2), which atomically re-points routing at the
// destinations. Per-flow leases ride inside the exported Updates
// (Owner/LeaseExpiry), so ownership survives the hop without re-grants.
//
// No acked write can be lost across the flip: an ack is only released
// after the write is applied on the engine's required replica set,
// which includes the resync source; the drain guarantees the fence
// preceded the export by more than any in-flight path; and the flip is
// atomic, so no packet observes "dropped at source, absent at
// destination" — after the flip its retransmit re-resolves to the
// destination, which holds the exported state.
//
// A move ABORTS — fence rolled back, epoch bumped, no state touched —
// if any involved chain's view changed during the drain or any current
// view member of an involved chain is dead at flip time. A view change
// mid-move could seat members that missed the fence-era traffic, and a
// dead view member cannot receive the install/drop, which would leave
// the chain internally divergent. Aborting is always safe: no state
// moved, routing still points at the sources, and the rebalancer (or
// the caller) simply retries once the membership settles.

// ErrNoTable is returned by migration entry points when the
// coordinator was built without a flow-space table.
var ErrNoTable = errors.New("member: no flow-space table configured")

// ErrMoveInFlight is returned by StartMove while a previous move is
// still draining.
var ErrMoveInFlight = errors.New("member: a migration is already in flight")

// migration is the coordinator's bookkeeping for one in-flight move.
type migration struct {
	mv flowspace.Move
	// chains is the sorted distinct set of source and destination
	// chains; views pins each one's view number at fence time.
	chains []int
	views  map[int]uint64
	srcs   []int
	dests  []int
}

// involved returns mv's sorted distinct sources, destinations, and
// their union, ignoring vacuous (From==To) arcs.
func involved(mv flowspace.Move) (srcs, dests, all []int) {
	sset, dset := map[int]bool{}, map[int]bool{}
	for _, a := range mv.Arcs {
		if a.From == a.To {
			continue
		}
		sset[a.From] = true
		dset[a.To] = true
	}
	collect := func(set map[int]bool) []int {
		out := make([]int, 0, len(set))
		for c := range set {
			out = append(out, c)
		}
		sort.Ints(out)
		return out
	}
	srcs, dests = collect(sset), collect(dset)
	uset := map[int]bool{}
	for c := range sset {
		uset[c] = true
	}
	for c := range dset {
		uset[c] = true
	}
	return srcs, dests, collect(uset)
}

// Migrating reports whether a move is between fence and flip. The
// chaos harness waits it out before taking digest verdicts, the same
// way it waits out in-flight resyncs.
func (co *Coordinator) Migrating() bool { return co.mig != nil }

// StartMove fences mv's arcs and schedules the flip after the drain. A
// pure move (every arc From==To — a rebalancer range split) is applied
// immediately with no fence: it changes no ownership, only adds ring
// points, so there is nothing to transfer.
func (co *Coordinator) StartMove(mv flowspace.Move) error {
	if co.table == nil {
		return ErrNoTable
	}
	if mv.Pure() {
		co.table.ApplySplit(mv)
		co.splits.Inc()
		return nil
	}
	if co.mig != nil {
		return ErrMoveInFlight
	}
	srcs, dests, chains := involved(mv)
	for _, ch := range chains {
		if ch < 0 || ch >= co.cluster.Shards() {
			return fmt.Errorf("member: move touches chain %d but the cluster has %d shards",
				ch, co.cluster.Shards())
		}
	}
	if err := co.table.BeginMove(mv); err != nil {
		return err
	}
	views := make(map[int]uint64, len(chains))
	for _, ch := range chains {
		views[ch] = co.cluster.ViewNum(ch)
	}
	co.mig = &migration{mv: mv, chains: chains, views: views, srcs: srcs, dests: dests}
	co.migrations.Inc()
	if co.tr.Active() {
		co.tr.Emit(obs.Event{T: int64(co.sim.Now()), Type: obs.EvMigrateBegin,
			Comp: "member", V: int64(co.table.Epoch())})
	}
	co.sim.After(co.cfg.MigrationDrain, co.finishMove)
	return nil
}

// MoveKeyArc migrates the ring arc holding key to chain to — the unit
// move the chaos schedules inject, aimed at a live flow so the transfer
// carries real state. Already-owned arcs are a no-op.
func (co *Coordinator) MoveKeyArc(key packet.FiveTuple, to int) error {
	if co.table == nil {
		return ErrNoTable
	}
	arc := co.table.ArcFor(key)
	if arc.From == to {
		return nil
	}
	arc.To = to
	return co.StartMove(flowspace.Move{Arcs: []flowspace.Arc{arc}})
}

// finishMove is the atomic flip (or abort) at drain expiry. It runs as
// one simulator event: no protocol traffic interleaves with the
// export/install/drop/commit sequence, which is what makes "routing,
// source state, and destination state change together" hold.
func (co *Coordinator) finishMove() {
	mig := co.mig
	co.mig = nil
	if mig == nil || co.table.Pending() == nil {
		return
	}
	abort := func() {
		co.table.AbortMove()
		co.migrationAborts.Inc()
		if co.tr.Active() {
			co.tr.Emit(obs.Event{T: int64(co.sim.Now()), Type: obs.EvMigrateAbort,
				Comp: "member", V: int64(co.table.Epoch())})
		}
	}
	// Stability gate: every involved chain kept its fence-time view and
	// every current view member is alive (a dead member could not
	// receive the install/drop and would diverge from its chain).
	for _, ch := range mig.chains {
		if co.cluster.ViewNum(ch) != mig.views[ch] {
			abort()
			return
		}
		for _, m := range co.cluster.ViewMembers(ch) {
			if !co.cluster.Server(ch, m).Alive() {
				abort()
				return
			}
		}
	}
	// Export each destination's share of the fenced ranges from the
	// source chains' resync sources, install on every destination view
	// member, and gate on a range digest — the migration analog of
	// finishResync's clone-then-digest splice gate. With the atomic
	// in-event transfer the digest holds by construction; in a real
	// deployment the transfer is a network stream and this check is what
	// keeps a torn one from committing.
	installed := make(map[int]func(packet.FiveTuple) bool, len(mig.dests))
	moved := 0
	for _, dst := range mig.dests {
		dst := dst
		destPred := func(k packet.FiveTuple) bool {
			d, ok := co.table.PendingDest(k)
			return ok && d == dst
		}
		var ups []store.Update
		for _, src := range mig.srcs {
			if src == dst {
				continue
			}
			srcChain := src
			ups = append(ups, co.cluster.ResyncSource(src).Shard().ExportRange(
				func(k packet.FiveTuple) bool {
					return destPred(k) && co.table.ChainFor(k) == srcChain
				})...)
		}
		want := store.DigestUpdates(ups)
		ok := true
		for _, m := range co.cluster.ViewMembers(dst) {
			srv := co.cluster.Server(dst, m)
			srv.InstallRange(ups)
			if srv.Shard().RangeDigest(destPred) != want {
				ok = false
			}
		}
		if !ok {
			// Unwind: strip everything installed so far (this chain and
			// earlier destinations), then roll the fence back.
			installed[dst] = destPred
			for d, pred := range installed {
				for _, m := range co.cluster.ViewMembers(d) {
					co.cluster.Server(d, m).DropRange(pred)
				}
			}
			abort()
			return
		}
		installed[dst] = destPred
		moved += len(ups)
	}
	// Tombstone the moved ranges out of every source view member. Must
	// precede CommitMove: the predicate keys off current (pre-flip)
	// ownership. Replicas outside the view converge later through the
	// ordinary rejoin resync, which clones the post-drop source.
	for _, src := range mig.srcs {
		srcChain := src
		pred := func(k packet.FiveTuple) bool {
			d, ok := co.table.PendingDest(k)
			return ok && d != srcChain && co.table.ChainFor(k) == srcChain
		}
		for _, m := range co.cluster.ViewMembers(src) {
			co.cluster.Server(src, m).DropRange(pred)
		}
	}
	co.table.CommitMove()
	co.migrationOK.Inc()
	co.migratedFlows.Add(uint64(moved))
	if co.tr.Active() {
		co.tr.Emit(obs.Event{T: int64(co.sim.Now()), Type: obs.EvMigrateCommit,
			Comp: "member", V: int64(moved)})
	}
}

// rebalanceTick publishes per-chain load gauges and, when no move is in
// flight, asks the table for a skew-correcting plan and starts it.
// Loads reset every tick so the detector sees a fresh window rather
// than the run's cumulative history.
func (co *Coordinator) rebalanceTick() {
	loads := co.table.ChainLoads()
	for c, g := range co.chainLoads {
		if c < len(loads) {
			g.Set(int64(loads[c]))
		}
	}
	if co.mig == nil && co.table.Pending() == nil {
		if mv := co.table.PlanRebalance(co.cfg.RebalanceTheta); mv != nil {
			// A stale plan or an in-flight-move race surfaces as an
			// error; the next tick replans from current state.
			_ = co.StartMove(*mv)
		}
	}
	co.table.ResetLoads()
}
