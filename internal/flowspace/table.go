// Package flowspace is the scale-out flow-space routing layer: a
// consistent-hash ring that partitions the five-tuple space across many
// independent replication chains (NetChain-style partitioning — each
// chain owns a set of ring arcs), published as an epoch-numbered routing
// table that every switch and every store replica consults, so ownership
// is agreed per epoch.
//
// The ring places `vnodes` virtual points per chain at deterministic
// hash positions; a key belongs to the arc ending at its successor
// point (the first point clockwise from the key's symmetric hash), and
// the arc's owner chain serves it. Virtual nodes keep the initial
// partition balanced to a few percent; the per-arc load counters and
// the rebalance planner handle what hashing cannot — skewed (Zipfian,
// heavy-hitter) flow populations.
//
// Reconfiguration is a two-phase Move of whole arcs between chains:
//
//	BeginMove  — fence the moving arcs (epoch E+1): every replica
//	             refuses requests for fenced keys, so in-flight packets
//	             fall into the switches' existing retransmit path;
//	CommitMove — flip arc ownership (epoch E+2): retransmits re-consult
//	             the table and land on the destination chain;
//	AbortMove  — restore the pre-move ring (epoch E+2) when the
//	             coordinator observes a view change mid-migration.
//
// The state transfer between the two phases — exporting the fenced
// range's durable state from the source chain and installing it on the
// destination — is the membership coordinator's job (internal/member);
// the table only tracks who owns what and which keys are in flight.
//
// Modeling caveat: in the simulator the table is shared by reference,
// so an epoch flip reaches every switch and replica at the same virtual
// instant (an idealized config rollout). The epoch number is still
// load-bearing: replicas reject keys they do not own under the current
// epoch, and the switches' retransmit path re-resolves routing per
// attempt, which is exactly the redirect a staged rollout would need.
package flowspace

import (
	"errors"
	"fmt"
	"sort"

	"redplane/internal/packet"
)

// DefaultVNodes is the virtual-point count per chain. Per-chain key
// mass deviates by roughly 1/sqrt(vnodes): 256 points per chain keeps
// it within ~±10% before any rebalancing, at a routing table of a few
// thousand entries for the chain counts this repo targets (1–16) —
// still a cheap binary search per lookup.
const DefaultVNodes = 256

// maxSplitFactor bounds rebalancer-inserted split points to this
// multiple of the construction-time point count, so a pathological
// single-key hot spot cannot grow the table without bound.
const maxSplitFactor = 4

// point is one ring entry: the arc (prev.pos, pos] is owned by chain.
type point struct {
	pos   uint64
	chain int
}

// Arc describes one moving ring arc inside a Move: after commit the
// point at Pos is owned by To. A point that does not yet exist at Pos
// is inserted (fenced) at BeginMove — that is how a joining chain
// carves its arcs out of the incumbents, and how a split isolates a hot
// sub-range. From records the owner at plan time and fails the move if
// ownership changed before BeginMove (a stale plan).
type Arc struct {
	Pos  uint64 `json:"pos"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// Move is an atomic routing-table reconfiguration: a set of arcs that
// fence, transfer, and flip together under one epoch pair.
type Move struct {
	Arcs []Arc `json:"arcs"`
}

// Pure reports whether the move transfers no state: every arc stays on
// its owner (From == To), as in a split that only inserts points. Pure
// moves may be applied without fencing or data transfer.
func (m Move) Pure() bool {
	for _, a := range m.Arcs {
		if a.From != a.To {
			return false
		}
	}
	return len(m.Arcs) > 0
}

func (m Move) String() string {
	if len(m.Arcs) == 1 {
		a := m.Arcs[0]
		return fmt.Sprintf("move[%#x %d→%d]", a.Pos, a.From, a.To)
	}
	return fmt.Sprintf("move[%d arcs %d→%d]", len(m.Arcs), m.Arcs[0].From, m.Arcs[0].To)
}

// Table is the epoch-numbered routing table. It is not safe for
// concurrent mutation; the simulator is single-threaded and the
// real-UDP path never mutates a table.
type Table struct {
	vnodes int
	chains int
	points []point
	// loads[i] counts routed packets for the arc ending at points[i]
	// since the last ResetLoads — the rebalancer's measurement window.
	loads []uint64
	// fenced[i] marks arcs of the pending move: replicas refuse their
	// keys until commit/abort.
	fenced []bool
	epoch  uint64
	// pending is the in-flight move, nil when the table is stable.
	pending *Move
	// insertedAt records the point indices BeginMove inserted, so
	// AbortMove can remove exactly those.
	inserted map[uint64]bool
}

// New builds a table partitioning the flow space across `chains` chains
// with `vnodes` virtual points each (DefaultVNodes when vnodes <= 0).
// The initial epoch is 1.
func New(chains, vnodes int) *Table {
	if chains < 1 {
		panic("flowspace: need at least one chain")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	t := &Table{vnodes: vnodes, chains: chains, epoch: 1}
	for c := 0; c < chains; c++ {
		t.insertChainPoints(c)
	}
	t.loads = make([]uint64, len(t.points))
	t.fenced = make([]bool, len(t.points))
	return t
}

// PointPos returns the deterministic ring position of a chain's v-th
// virtual point. Positions depend only on (chain, v), so a chain's
// points land at the same place in every table — that is what makes
// assignment stable under chain add/remove (only the arcs the new
// chain's points capture change owners).
//
// The position hash is a splitmix64-style finalizer rather than FNV:
// FNV's tail is a single prime multiply, so the 64 inputs of one chain
// (differing only in the low vnode bits) would land within a ~v·prime
// span — eight tight clusters instead of 512 spread points, and one
// chain would own most of the ring by capturing the inter-cluster gap.
// Full avalanche is load-bearing here.
func PointPos(chain, v int) uint64 {
	x := uint64(chain)<<32 | uint64(v)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// insertChainPoints adds a chain's virtual points, skipping the
// astronomically unlikely position collision by linear probing. The
// slice is unsorted mid-insert, so probing scans linearly; New sorts
// once per chain.
func (t *Table) insertChainPoints(chain int) {
	for v := 0; v < t.vnodes; v++ {
		pos := PointPos(chain, v)
		for t.hasPos(pos) {
			pos++
		}
		t.points = append(t.points, point{pos: pos, chain: chain})
	}
	sort.Slice(t.points, func(a, b int) bool { return t.points[a].pos < t.points[b].pos })
}

// hasPos reports whether any point sits at exactly pos, without
// assuming the points slice is sorted (construction-time probe).
func (t *Table) hasPos(pos uint64) bool {
	for _, p := range t.points {
		if p.pos == pos {
			return true
		}
	}
	return false
}

// findPoint returns the index of the point at exactly pos, or -1.
func (t *Table) findPoint(pos uint64) int {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].pos >= pos })
	if i < len(t.points) && t.points[i].pos == pos {
		return i
	}
	return -1
}

// succ returns the index of a hash's successor point (the owner arc).
func (t *Table) succ(h uint64) int {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].pos >= h })
	if i == len(t.points) {
		return 0
	}
	return i
}

// Epoch returns the current routing epoch. It bumps on every
// reconfiguration step (begin, commit, abort, split) so "same epoch"
// always means "same ownership and same fence set".
func (t *Table) Epoch() uint64 { return t.epoch }

// Chains returns the number of chains the table routes over.
func (t *Table) Chains() int { return t.chains }

// NumPoints returns the current ring size (construction points plus
// rebalancer splits).
func (t *Table) NumPoints() int { return len(t.points) }

// ChainFor returns the chain that owns a key under the current epoch.
// During a move the SOURCE still owns fenced keys — ownership flips
// only at commit.
func (t *Table) ChainFor(key packet.FiveTuple) int {
	return t.points[t.succ(key.SymmetricHash())].chain
}

// ChainForHash is ChainFor on a precomputed symmetric hash.
func (t *Table) ChainForHash(h uint64) int {
	return t.points[t.succ(h)].chain
}

// Fenced reports whether a key is inside the pending move's arcs —
// replicas refuse fenced keys so the switches' retransmit path carries
// them across the epoch flip.
func (t *Table) Fenced(key packet.FiveTuple) bool {
	if t.pending == nil {
		return false
	}
	return t.fenced[t.succ(key.SymmetricHash())]
}

// Record charges one routed packet to a key's arc. Called from the
// switch-side routing consult, it is the rebalancer's only input.
func (t *Table) Record(key packet.FiveTuple) {
	t.loads[t.succ(key.SymmetricHash())]++
}

// ResetLoads zeroes the per-arc counters, closing a measurement window.
func (t *Table) ResetLoads() {
	for i := range t.loads {
		t.loads[i] = 0
	}
}

// ChainLoads sums the per-arc counters by owner chain for the current
// window.
func (t *Table) ChainLoads() []uint64 {
	out := make([]uint64, t.chains)
	for i, p := range t.points {
		out[p.chain] += t.loads[i]
	}
	return out
}

// Pending returns the in-flight move, or nil.
func (t *Table) Pending() *Move { return t.pending }

// MovingPred returns a membership test for the pending move's key
// ranges, for the coordinator to export/drop exactly the fenced state.
// The predicate captures the point set at call time; use it only while
// the move is pending.
func (t *Table) MovingPred() func(packet.FiveTuple) bool {
	if t.pending == nil {
		return func(packet.FiveTuple) bool { return false }
	}
	fenced := append([]bool(nil), t.fenced...)
	points := append([]point(nil), t.points...)
	return func(key packet.FiveTuple) bool {
		h := key.SymmetricHash()
		i := sort.Search(len(points), func(i int) bool { return points[i].pos >= h })
		if i == len(points) {
			i = 0
		}
		return fenced[i]
	}
}

// PendingDest returns the destination chain the pending move assigns a
// key to, with ok=false when no move is pending or the key is outside
// the moving arcs.
func (t *Table) PendingDest(key packet.FiveTuple) (int, bool) {
	if t.pending == nil {
		return 0, false
	}
	i := t.succ(key.SymmetricHash())
	if !t.fenced[i] {
		return 0, false
	}
	pos := t.points[i].pos
	for _, a := range t.pending.Arcs {
		if a.Pos == pos {
			return a.To, true
		}
	}
	return 0, false
}

// ArcFor returns the ring arc a key currently falls in (From==To: an
// arc names ownership, not a move). Callers build a Move from it by
// setting To.
func (t *Table) ArcFor(key packet.FiveTuple) Arc {
	i := t.succ(key.SymmetricHash())
	return Arc{Pos: t.points[i].pos, From: t.points[i].chain, To: t.points[i].chain}
}

// errors returned by BeginMove.
var (
	ErrMovePending = errors.New("flowspace: a move is already pending")
	ErrStalePlan   = errors.New("flowspace: move plan is stale (ownership changed)")
)

// BeginMove fences a move's arcs and bumps the epoch. Arcs whose point
// does not exist yet are inserted (chain join, split). Returns
// ErrStalePlan without side effects if any arc's From no longer matches
// current ownership.
func (t *Table) BeginMove(mv Move) error {
	if t.pending != nil {
		return ErrMovePending
	}
	if len(mv.Arcs) == 0 {
		return errors.New("flowspace: empty move")
	}
	// Validate against current ownership before mutating anything.
	for _, a := range mv.Arcs {
		if i := t.findPoint(a.Pos); i >= 0 {
			if t.points[i].chain != a.From {
				return ErrStalePlan
			}
		} else if t.points[t.succ(a.Pos)].chain != a.From {
			// An inserted point carves the tail of its successor's arc,
			// so the successor's owner is the state source.
			return ErrStalePlan
		}
	}
	t.inserted = make(map[uint64]bool)
	for _, a := range mv.Arcs {
		if t.findPoint(a.Pos) < 0 {
			t.insertPointAt(a.Pos, a.From)
			t.inserted[a.Pos] = true
		}
	}
	mvCopy := Move{Arcs: append([]Arc(nil), mv.Arcs...)}
	t.pending = &mvCopy
	for _, a := range mv.Arcs {
		t.fenced[t.findPoint(a.Pos)] = true
	}
	t.epoch++
	return nil
}

// insertPointAt splices a new point into the sorted ring, keeping the
// load and fence slices aligned. The new point starts with zero load
// (its keys' past counts stay charged to the old, now-shortened arc).
func (t *Table) insertPointAt(pos uint64, chain int) {
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].pos >= pos })
	t.points = append(t.points, point{})
	copy(t.points[i+1:], t.points[i:])
	t.points[i] = point{pos: pos, chain: chain}
	t.loads = append(t.loads, 0)
	copy(t.loads[i+1:], t.loads[i:])
	t.loads[i] = 0
	t.fenced = append(t.fenced, false)
	copy(t.fenced[i+1:], t.fenced[i:])
	t.fenced[i] = false
}

// removePointAt removes the point at index i, merging its window load
// into its successor (whose arc re-absorbs the span).
func (t *Table) removePointAt(i int) {
	load := t.loads[i]
	t.points = append(t.points[:i], t.points[i+1:]...)
	t.loads = append(t.loads[:i], t.loads[i+1:]...)
	t.fenced = append(t.fenced[:i], t.fenced[i+1:]...)
	if len(t.loads) > 0 {
		t.loads[i%len(t.loads)] += load
	}
}

// CommitMove flips ownership of the pending arcs to their destinations,
// clears the fence, and bumps the epoch. Panics if no move is pending
// (a coordinator state-machine bug, not a runtime condition).
func (t *Table) CommitMove() Move {
	if t.pending == nil {
		panic("flowspace: CommitMove without a pending move")
	}
	mv := *t.pending
	for _, a := range mv.Arcs {
		i := t.findPoint(a.Pos)
		t.points[i].chain = a.To
		t.fenced[i] = false
		if a.To >= t.chains {
			t.chains = a.To + 1
		}
	}
	t.pending = nil
	t.inserted = nil
	t.epoch++
	return mv
}

// AbortMove restores the pre-move ring: inserted points are removed,
// fences cleared, ownership untouched, epoch bumped. Safe to call only
// while a move is pending.
func (t *Table) AbortMove() {
	if t.pending == nil {
		panic("flowspace: AbortMove without a pending move")
	}
	for pos := range t.inserted {
		if i := t.findPoint(pos); i >= 0 {
			t.removePointAt(i)
		}
	}
	for i := range t.fenced {
		t.fenced[i] = false
	}
	t.pending = nil
	t.inserted = nil
	t.epoch++
}

// JoinMoves plans a chain join: the next chain id plus the move that
// carves its virtual points' arcs out of the incumbent owners. Commit
// the move and the table routes over chains+1 chains with only ~1/(N+1)
// of the key space changing owners.
func (t *Table) JoinMoves() (chain int, mv Move) {
	chain = t.chains
	for v := 0; v < t.vnodes; v++ {
		pos := PointPos(chain, v)
		for t.findPoint(pos) >= 0 {
			pos++
		}
		from := t.points[t.succ(pos)].chain
		mv.Arcs = append(mv.Arcs, Arc{Pos: pos, From: from, To: chain})
	}
	return chain, mv
}

// DrainMoves plans a chain removal: every arc the chain owns moves to
// the remaining chains, round-robin in ring order so the drained load
// spreads evenly. The chain's points stay on the ring under new owners
// (harmless extra points); the caller decommissions the chain's
// servers once the move commits.
func (t *Table) DrainMoves(chain int) Move {
	var mv Move
	var rest []int
	for c := 0; c < t.chains; c++ {
		if c != chain {
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return mv
	}
	n := 0
	for _, p := range t.points {
		if p.chain == chain {
			mv.Arcs = append(mv.Arcs, Arc{Pos: p.pos, From: chain, To: rest[n%len(rest)]})
			n++
		}
	}
	return mv
}

// PlanRebalance inspects the current load window and returns the move
// that best flattens per-chain load, or nil when the window is already
// balanced (max chain load within theta of the mean, e.g. theta=1.25),
// carries no traffic, or cannot be improved.
//
// The planner is a heavy-hitter isolator working from per-arc counters
// only:
//
//  1. Move: among the hottest chain's arcs, pick the one whose load is
//     closest to half the hot–cold gap (the greedy choice that
//     minimizes the post-move gap) and move it to the coldest chain.
//  2. Split: when no arc improves the gap — the classic sign that one
//     arc carries the whole surplus — bisect the hottest arc instead
//     (a Pure move: same owner, new midpoint). The next window then
//     measures the halves separately, so repeated rounds isolate the
//     heavy hitter onto a narrow arc whose neighbors CAN move. A
//     single flow hotter than every other chain combined is
//     unsplittable below one key; the planner converges to nil there.
func (t *Table) PlanRebalance(theta float64) *Move {
	loads := t.ChainLoads()
	if len(loads) < 2 {
		return nil
	}
	var total uint64
	hot, cold := 0, 0
	for c, l := range loads {
		total += l
		if l > loads[hot] {
			hot = c
		}
		if l < loads[cold] {
			cold = c
		}
	}
	if total == 0 {
		return nil
	}
	mean := float64(total) / float64(len(loads))
	if float64(loads[hot]) <= theta*mean || loads[hot] == loads[cold] {
		return nil
	}
	gap := loads[hot] - loads[cold]
	// Greedy arc choice: minimize |gap - 2*load|, i.e. load nearest
	// gap/2, over the hot chain's loaded arcs. Improvement requires
	// load < gap (else the move just relocates the hot spot).
	best, bestIdx := uint64(0), -1
	for i, p := range t.points {
		if p.chain != hot || t.loads[i] == 0 || t.loads[i] >= gap {
			continue
		}
		if bestIdx < 0 || absDiff(gap, 2*t.loads[i]) < absDiff(gap, 2*best) {
			best, bestIdx = t.loads[i], i
		}
	}
	if bestIdx >= 0 {
		return &Move{Arcs: []Arc{{Pos: t.points[bestIdx].pos, From: hot, To: cold}}}
	}
	// No movable arc: the surplus sits on one arc. Bisect it.
	if len(t.points) >= maxSplitFactor*t.chains*t.vnodes {
		return nil
	}
	hotArc := -1
	for i, p := range t.points {
		if p.chain == hot && (hotArc < 0 || t.loads[i] > t.loads[hotArc]) {
			hotArc = i
		}
	}
	if hotArc < 0 || t.loads[hotArc] == 0 {
		return nil
	}
	mid, ok := t.arcMidpoint(hotArc)
	if !ok {
		return nil
	}
	return &Move{Arcs: []Arc{{Pos: mid, From: hot, To: hot}}}
}

// arcMidpoint returns the midpoint position of the arc ending at point
// i, handling the ring wrap, or ok=false when the arc is too narrow to
// split.
func (t *Table) arcMidpoint(i int) (uint64, bool) {
	end := t.points[i].pos
	var start uint64
	if i == 0 {
		start = t.points[len(t.points)-1].pos
	} else {
		start = t.points[i-1].pos
	}
	width := end - start // wraps correctly for the i==0 arc
	if width < 4 {
		return 0, false
	}
	mid := start + width/2 // wrapping add lands inside the arc
	if t.findPoint(mid) >= 0 {
		return 0, false
	}
	return mid, true
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// ApplySplit applies a Pure move (splits only) in one step: points are
// inserted under their owners with no fence, transfer, or abort window.
// Panics on a non-pure move.
func (t *Table) ApplySplit(mv Move) {
	if !mv.Pure() {
		panic("flowspace: ApplySplit on a non-pure move")
	}
	for _, a := range mv.Arcs {
		if t.findPoint(a.Pos) < 0 {
			t.insertPointAt(a.Pos, a.To)
		}
	}
	t.epoch++
}
