// Package store implements RedPlane's external state store (§5.1.1): an
// in-memory key-value service partitioned by flow key across shards, with
// lease-based state ownership (§5.3), per-flow sequence checking (§5.2),
// piggyback echo, asynchronous snapshot storage (§5.4), and chain
// replication across a group of servers (§6 uses a group size of 3).
//
// The Shard type is the one protocol core, and it is transport
// independent: the simulator server (Server) and the real-UDP server
// (UDPServer, cmd/redplane-store) drive it the same way. The replica a
// switch addresses decides — Decide and Flush, on its own clock — and
// every other replica copies the resulting Updates verbatim with Apply;
// no replica re-runs a request another one already decided.
package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"time"

	"redplane/internal/packet"
	"redplane/internal/repl"
	"redplane/internal/wire"
)

// NoOwner marks a flow with no active lease holder.
const NoOwner = -1

// DefaultMaxWaiting is the per-flow buffered-lease-request queue bound
// when Config.MaxWaiting is zero. Retransmissions dedupe in place, so
// the bound is on distinct buffered packets per flow; it is sized well
// above a burst that arrives within one lease handover.
const DefaultMaxWaiting = 64

// flowState is everything a shard tracks per flow partition.
type flowState struct {
	exists  bool // state has been initialized at least once
	vals    []uint64
	lastSeq uint64

	owner       int   // switch holding the lease, or NoOwner
	leaseExpiry int64 // ns timestamp

	// waiting queues copies of lease requests that arrived while another
	// switch held the lease (the protocol's BUFFERING state).
	waiting []*wire.Message

	// snapshots holds bounded-inconsistency images: the slots of the
	// epoch currently being received and the last complete image.
	snapEpoch    uint32
	snapSlots    map[uint32]uint64
	lastSnapshot []uint64
	lastSnapTime int64
}

// Output is a message the shard wants delivered to a switch. The
// canonical definition lives with the replication engines in
// internal/repl; store re-exports it so shard users never import repl.
type Output = repl.Output

// Update describes a state mutation for replication: peers apply it
// verbatim so every replica converges. Canonically repl.Update.
type Update = repl.Update

// Config parameterizes a shard.
type Config struct {
	// LeasePeriod is how long a granted lease lasts (1 s in the paper's
	// prototype).
	LeasePeriod time.Duration

	// InitState produces the initial state values for a flow the store
	// has never seen. This is where sharded global state (the NAT port
	// pool, the load balancer's server IP pool) is managed: the store
	// allocates from its shard of the pool. Nil means empty state.
	InitState func(key packet.FiveTuple) []uint64

	// SnapshotSlots is the expected slot count per snapshot epoch for
	// bounded-inconsistency flows; a complete image is recorded once all
	// slots of an epoch arrive. Zero disables completeness tracking.
	SnapshotSlots int

	// MaxWaiting caps each flow's queue of buffered lease requests.
	// Retransmitted requests (same switch, same buffered packet)
	// replace their older copy instead of growing the queue; requests
	// beyond the cap are shed and counted in Stats.WaitShed — the
	// requester retries on its next packet, which the correctness model
	// treats as request loss. Zero means DefaultMaxWaiting.
	MaxWaiting int

	// IgnoreSeq disables sequence-number serialization: updates apply in
	// arrival order, recreating the Fig. 6a inconsistency. FOR ABLATION
	// EXPERIMENTS ONLY.
	IgnoreSeq bool

	// UnsafeNoRevoke disables lease exclusion: lease requests are granted
	// immediately even while another switch holds an active lease, and
	// replication from a stale owner is still accepted — the "skip
	// revocation on failover" protocol bug. FOR CHAOS-HARNESS
	// FAULT-FINDING DEMONSTRATIONS ONLY: the chaos campaign's
	// linearizability and lease-invariant checkers must catch it.
	UnsafeNoRevoke bool
}

// Shard is one state-store partition. It is single-threaded by design:
// callers serialize access (the simulator is single-threaded; the UDP
// server runs one goroutine per shard).
type Shard struct {
	cfg   Config
	flows map[packet.FiveTuple]*flowState

	// walHook, when set, observes every state mutation the shard performs
	// — one call per Update, in apply order, before the mutation's
	// outputs reach the transport. The durability layer appends these to
	// the write-ahead log; the transport then holds the outputs until the
	// covering fsync (group commit).
	walHook func(Update)

	// idx is coalesce's per-batch flow index, empty between batches.
	idx map[packet.FiveTuple]int

	// Stats accumulates observability counters.
	Stats Stats
}

// Stats counts shard-level events.
type Stats struct {
	LeaseGrants   uint64
	LeaseRenewals uint64
	LeaseQueued   uint64
	LeaseMigrated uint64
	ReplApplied   uint64
	ReplStale     uint64
	ReplGapSkips  uint64
	// Regressions counts applied updates whose first value is lower than
	// the value they overwrote — impossible under sequencing for a
	// monotone application, and exactly what the Fig. 6a ablation
	// (IgnoreSeq) exposes.
	Regressions    uint64
	BufferedReads  uint64
	SnapshotSlots  uint64
	SnapshotImages uint64
	// WaitDeduped counts retransmitted lease requests that replaced an
	// older copy from the same switch in a flow's waiting queue instead
	// of growing it; WaitShed counts lease requests dropped because the
	// queue was at its MaxWaiting bound.
	WaitDeduped uint64
	WaitShed    uint64
	// CoalescedUps counts chain updates eliminated by per-flow
	// last-write-wins coalescing of batched commits.
	CoalescedUps uint64
	// OverlappingGrants counts leases granted while another switch still
	// held an unexpired lease on the flow — impossible under the §5.3
	// exclusion protocol, and exactly what the UnsafeNoRevoke chaos knob
	// (or a future protocol regression) exposes. The chaos harness
	// asserts it stays zero.
	OverlappingGrants uint64
}

// NewShard creates an empty shard.
func NewShard(cfg Config) *Shard {
	if cfg.LeasePeriod == 0 {
		cfg.LeasePeriod = time.Second
	}
	return &Shard{cfg: cfg, flows: make(map[packet.FiveTuple]*flowState), idx: make(map[packet.FiveTuple]int)}
}

// SetWALHook installs (or clears, with nil) the apply-log hook. Restore
// paths install it only after WAL replay so replayed updates are not
// re-logged.
func (s *Shard) SetWALHook(fn func(Update)) { s.walHook = fn }

func (s *Shard) logUps(ups []Update) {
	if s.walHook == nil {
		return
	}
	for _, up := range ups {
		s.walHook(up)
	}
}

func (s *Shard) flow(key packet.FiveTuple) *flowState {
	f, ok := s.flows[key]
	if !ok {
		f = &flowState{owner: NoOwner}
		s.flows[key] = f
	}
	return f
}

// Flows returns the number of flow partitions the shard tracks.
func (s *Shard) Flows() int { return len(s.flows) }

// Decide handles a switch's request datagram — one message or a batch's
// members, in arrival order — at time now (ns): it appends the messages to
// send to outs and the state mutations it performed to ups, their values
// copied into *arena (fresh slices if arena is nil), and keeps no
// reference to msgs. A batch's updates are coalesced per flow, last write
// wins, so one chain message carries its net effect (NetChain-style
// packing). Outputs of mutations must not reach switches before the chain
// commits the updates; the transport enforces that.
func (s *Shard) Decide(now int64, msgs []*wire.Message, outs []Output, ups []Update, arena *[]uint64) ([]Output, []Update) {
	d := decision{outs: outs, ups: ups, arena: arena}
	for _, m := range msgs {
		at := len(d.ups)
		s.decide(now, m, &d)
		s.logUps(d.ups[at:])
	}
	if len(msgs) > 1 {
		batch := d.ups[len(ups):]
		kept := coalesce(batch, s.idx)
		s.Stats.CoalescedUps += uint64(len(batch) - len(kept))
		d.ups = d.ups[:len(ups)+len(kept)]
	}
	return d.outs, d.ups
}

// Process is Decide for one request, into fresh slices.
func (s *Shard) Process(now int64, m *wire.Message) ([]Output, []Update) {
	return s.Decide(now, []*wire.Message{m}, nil, nil, nil)
}

// ProcessBatch is Decide for a batch's members, into fresh slices.
func (s *Shard) ProcessBatch(now int64, msgs []*wire.Message) ([]Output, []Update) {
	return s.Decide(now, msgs, nil, nil, nil)
}

// decision is what one Decide or Flush call appends to.
type decision struct {
	outs  []Output
	ups   []Update
	arena *[]uint64 // where update values are copied; nil: fresh slices
}

// reply appends an acknowledgment for its switch.
func (d *decision) reply(ack wire.Message) {
	d.outs = append(d.outs, Output{DstSwitch: ack.SwitchID, Msg: ack})
}

// vals copies v: into the arena when there is one, else into a fresh
// slice (nil for none).
func (d *decision) vals(v []uint64) []uint64 {
	if d.arena == nil || len(v) == 0 {
		return append([]uint64(nil), v...)
	}
	at := len(*d.arena)
	*d.arena = append(*d.arena, v...)
	return (*d.arena)[at:len(*d.arena):len(*d.arena)]
}

func (s *Shard) decide(now int64, m *wire.Message, d *decision) {
	switch m.Type {
	case wire.MsgLeaseNew:
		s.processLeaseNew(now, m, d)
	case wire.MsgLeaseRenew:
		s.processLeaseRenew(now, m, d)
	case wire.MsgRepl:
		s.processRepl(now, m, d)
	case wire.MsgBufferedRead:
		s.Stats.BufferedReads++
		// Echo the packet back; the switch holds it until the awaited
		// write (m.Seq) is acknowledged. Reads do not mutate state.
		d.reply(wire.Message{
			Type: wire.MsgBufferedReadAck, Seq: m.Seq, Key: m.Key,
			SwitchID: m.SwitchID, StoreShard: m.StoreShard, Piggyback: m.Piggyback,
		})
	case wire.MsgSnapshot:
		s.processSnapshot(now, m, d)
	default:
		// Unknown or ack-typed messages are dropped: the store never
		// receives acks in a correct deployment, and a robust server
		// does not crash on garbage.
	}
}

// coalesce collapses a batch's chain updates per flow, keeping the last
// write for each key at its first-occurrence position (stable order, so
// identical-seed runs propagate identically). Snapshot slot updates are
// never coalesced — each carries distinct slots of an epoch's image. The
// slice is filtered in place; idx, the flow index, is cleared after.
func coalesce(ups []Update, idx map[packet.FiveTuple]int) []Update {
	if len(ups) < 2 {
		return ups
	}
	out := ups[:0]
	for _, up := range ups {
		if up.HasSnap {
			out = append(out, up)
			continue
		}
		if i, ok := idx[up.Key]; ok {
			out[i] = up
			continue
		}
		idx[up.Key] = len(out)
		out = append(out, up)
	}
	clear(idx)
	return out
}

// CoalesceUpdates is a batch's per-flow coalescing outside any shard.
func CoalesceUpdates(ups []Update) []Update {
	return coalesce(ups, make(map[packet.FiveTuple]int, len(ups)))
}

func (s *Shard) grant(now int64, f *flowState, m *wire.Message, d *decision) {
	newFlow := !f.exists
	if f.owner != NoOwner && f.owner != m.SwitchID && f.leaseExpiry > now {
		s.Stats.OverlappingGrants++
	}
	if newFlow {
		if s.cfg.InitState != nil {
			f.vals = s.cfg.InitState(m.Key)
		}
		f.exists = true
	} else if f.owner != NoOwner && f.owner != m.SwitchID {
		s.Stats.LeaseMigrated++
	}
	f.owner = m.SwitchID
	f.leaseExpiry = now + s.cfg.LeasePeriod.Nanoseconds()
	s.Stats.LeaseGrants++
	vals := d.vals(f.vals)
	d.reply(wire.Message{
		Type: wire.MsgLeaseNewAck, Seq: f.lastSeq, Key: m.Key, Vals: vals,
		LeaseMillis: uint32(s.cfg.LeasePeriod.Milliseconds()),
		NewFlow:     newFlow,
		SwitchID:    m.SwitchID, StoreShard: m.StoreShard,
		Piggyback: m.Piggyback,
	})
	d.ups = append(d.ups, Update{
		Key: m.Key, Vals: vals, LastSeq: f.lastSeq,
		Owner: f.owner, LeaseExpiry: f.leaseExpiry, Exists: true,
	})
}

func (s *Shard) processLeaseNew(now int64, m *wire.Message, d *decision) {
	f := s.flow(m.Key)
	if !s.cfg.UnsafeNoRevoke &&
		f.owner != NoOwner && f.owner != m.SwitchID && f.leaseExpiry > now {
		// Another switch holds an active lease: queue the request (the
		// TLA+ spec's BUFFERING transition). It will be re-processed
		// when the lease expires. A retransmission — same switch, same
		// buffered packet — replaces its older copy in place instead of
		// growing the queue and replaying duplicate grants at Flush.
		// Requests carrying distinct piggybacked packets are NOT
		// duplicates: the queue is the network-side packet buffer of
		// §5.1, and each entry releases one buffered packet at grant.
		// The queue is bounded; excess requests are shed. What is queued
		// is a copy: the caller reuses m once Decide returns.
		for i, w := range f.waiting {
			if w.SwitchID == m.SwitchID && samePiggyback(w.Piggyback, m.Piggyback) {
				f.waiting[i] = m.Clone()
				s.Stats.WaitDeduped++
				return
			}
		}
		max := s.cfg.MaxWaiting
		if max == 0 {
			max = DefaultMaxWaiting
		}
		if len(f.waiting) >= max {
			s.Stats.WaitShed++
			return
		}
		f.waiting = append(f.waiting, m.Clone())
		s.Stats.LeaseQueued++
		return
	}
	s.grant(now, f, m, d)
}

// samePiggyback reports whether two lease requests buffer the same
// packet (retransmissions do; requests triggered by different packets
// of a flow do not).
func samePiggyback(a, b *packet.Packet) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Seq == b.Seq
}

func (s *Shard) processLeaseRenew(now int64, m *wire.Message, d *decision) {
	f := s.flow(m.Key)
	if f.owner != m.SwitchID {
		// The requester no longer owns the flow (lease lapsed and moved,
		// or never owned): tell it so it re-acquires via MsgLeaseNew.
		d.reply(wire.Message{Type: wire.MsgLeaseReject, Key: m.Key, Seq: f.lastSeq,
			SwitchID: m.SwitchID, StoreShard: m.StoreShard})
		return
	}
	f.leaseExpiry = now + s.cfg.LeasePeriod.Nanoseconds()
	s.Stats.LeaseRenewals++
	d.reply(wire.Message{
		Type: wire.MsgLeaseRenewAck, Seq: f.lastSeq, Key: m.Key,
		LeaseMillis: uint32(s.cfg.LeasePeriod.Milliseconds()),
		SwitchID:    m.SwitchID, StoreShard: m.StoreShard,
	})
	d.ups = append(d.ups, Update{Key: m.Key, Vals: f.vals, LastSeq: f.lastSeq,
		Owner: f.owner, LeaseExpiry: f.leaseExpiry, Exists: f.exists})
}

func (s *Shard) processRepl(now int64, m *wire.Message, d *decision) {
	f := s.flow(m.Key)
	if !s.cfg.UnsafeNoRevoke && (f.owner != m.SwitchID || f.leaseExpiry <= now) {
		// Stale owner: reject so the switch re-leases. This is the
		// §5.3 guard against two switches writing concurrently.
		d.reply(wire.Message{Type: wire.MsgLeaseReject, Key: m.Key, Seq: f.lastSeq,
			SwitchID: m.SwitchID, StoreShard: m.StoreShard})
		return
	}
	ackSeq := f.lastSeq
	switch {
	case s.cfg.IgnoreSeq:
		// Ablation: apply in arrival order. A reordered older update
		// overwrites a newer one — the inconsistency §5.2 exists to
		// prevent.
		if len(f.vals) > 0 && len(m.Vals) > 0 && m.Vals[0] < f.vals[0] {
			s.Stats.Regressions++
		}
		f.vals = append(f.vals[:0], m.Vals...)
		if m.Seq > f.lastSeq {
			f.lastSeq = m.Seq
		}
		f.exists = true
		f.leaseExpiry = now + s.cfg.LeasePeriod.Nanoseconds()
		s.Stats.ReplApplied++
		ackSeq = m.Seq
	case m.Seq <= f.lastSeq:
		// Duplicate or reordered-behind: already applied. Ack
		// cumulatively; return the piggyback (if this copy still has
		// one) so the output packet is not lost needlessly. The current
		// state re-propagates down the chain with the ack: a duplicate
		// usually means an earlier chain message may have been lost at a
		// crashed replica, and riding the ack through the chain both
		// restores replica convergence and keeps the ack from being
		// released while the chain is still broken.
		s.Stats.ReplStale++
	default:
		// Newer than anything applied: commit it. Replication requests
		// carry the flow's full state, so a gap means intervening updates
		// were superseded — exactly Fig. 6b, where seq 1 arriving after
		// seq 2 is "not committed". Acks are cumulative: they cover every
		// lower sequence number, which also drains the switch's
		// retransmission buffer for skipped updates.
		if m.Seq > f.lastSeq+1 {
			s.Stats.ReplGapSkips++
		}
		if len(f.vals) > 0 && len(m.Vals) > 0 && m.Vals[0] < f.vals[0] {
			s.Stats.Regressions++
		}
		f.vals = append(f.vals[:0], m.Vals...)
		f.lastSeq = m.Seq
		f.exists = true
		f.leaseExpiry = now + s.cfg.LeasePeriod.Nanoseconds() // writes renew (§5.3)
		s.Stats.ReplApplied++
		ackSeq = f.lastSeq
	}
	d.reply(wire.Message{
		Type: wire.MsgReplAck, Seq: ackSeq, Key: m.Key,
		SwitchID: m.SwitchID, StoreShard: m.StoreShard, Piggyback: m.Piggyback,
	})
	d.ups = append(d.ups, Update{Key: m.Key, Vals: d.vals(f.vals),
		LastSeq: f.lastSeq, Owner: f.owner, LeaseExpiry: f.leaseExpiry, Exists: f.exists})
}

// epochNewer reports whether snapshot epoch a is newer than b under
// serial-number arithmetic (RFC 1982 with a 32-bit window): the switch's
// epoch counter wraps at 2³²−1, and a plain `a > b` comparison would
// treat the post-wrap epoch 0 as ancient, freezing the
// bounded-inconsistency image forever after the wrap.
func epochNewer(a, b uint32) bool { return int32(a-b) > 0 }

func (s *Shard) processSnapshot(now int64, m *wire.Message, d *decision) {
	f := s.flow(m.Key)
	f.exists = true
	if f.snapSlots == nil || epochNewer(m.Epoch, f.snapEpoch) {
		f.snapEpoch = m.Epoch
		f.snapSlots = make(map[uint32]uint64, s.cfg.SnapshotSlots)
	}
	if m.Epoch == f.snapEpoch {
		for i, v := range m.Vals {
			if slot := m.Slot + uint32(i); s.cfg.SnapshotSlots == 0 || slot < uint32(s.cfg.SnapshotSlots) {
				f.snapSlots[slot] = v // a slot past the image is a malformed request's
				s.Stats.SnapshotSlots++
			}
		}
		if s.cfg.SnapshotSlots > 0 && len(f.snapSlots) == s.cfg.SnapshotSlots {
			img := make([]uint64, s.cfg.SnapshotSlots)
			for slot, v := range f.snapSlots {
				img[int(slot)] = v
			}
			f.lastSnapshot = img
			f.lastSnapTime = now
			s.Stats.SnapshotImages++
		}
	}
	d.ups = append(d.ups, Update{Key: m.Key, HasSnap: true, SnapEpoch: m.Epoch, SnapSlot: m.Slot,
		SnapVals: d.vals(m.Vals), Exists: true,
		Owner: f.owner, LeaseExpiry: f.leaseExpiry})
	d.reply(wire.Message{
		Type: wire.MsgSnapshotAck, Seq: m.Seq, Key: m.Key, Slot: m.Slot, Epoch: m.Epoch,
		SwitchID: m.SwitchID, StoreShard: m.StoreShard,
	})
}

// Flush grants queued lease requests whose blocking lease has expired. The
// transport calls it when a wake timer fires (or periodically). It returns
// outputs/updates like Process: fresh slices, one output and one update
// per grant.
//
// Waiting flows are visited in sorted five-tuple order, never map order:
// several flows' leases routinely expire inside one wake, and the grant
// order decides the order of outputs, chain updates, and trace events —
// iterating the map would make identical-seed runs diverge byte-for-byte
// through any lease-buffering window.
func (s *Shard) Flush(now int64) ([]Output, []Update) {
	var keys []packet.FiveTuple
	for k, f := range s.flows {
		if len(f.waiting) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	var d decision
	for _, k := range keys {
		f := s.flows[k]
		for len(f.waiting) > 0 && (f.owner == NoOwner || f.leaseExpiry <= now ||
			f.owner == f.waiting[0].SwitchID) {
			m := f.waiting[0]
			f.waiting = f.waiting[1:]
			s.grant(now, f, m, &d)
		}
	}
	s.logUps(d.ups)
	return d.outs, d.ups
}

// NextWake returns the earliest lease expiry that has a queued waiter, or
// 0 if no wake-up is needed.
func (s *Shard) NextWake() int64 {
	var at int64
	for _, f := range s.flows {
		if len(f.waiting) == 0 {
			continue
		}
		if at == 0 || f.leaseExpiry < at {
			at = f.leaseExpiry
		}
	}
	return at
}

// Stale reports whether applying up would move its flow backwards: the
// replica already holds a later write, or the same write under a later
// lease. Chain frames overtake each other on a real network and a rejoin
// delta trails the live chain; both skip a stale update instead of
// applying it. Snapshot slots merge by epoch and are never stale.
func (s *Shard) Stale(up Update) bool {
	f, ok := s.flows[up.Key]
	return ok && !up.HasSnap && (f.lastSeq > up.LastSeq ||
		f.lastSeq == up.LastSeq && f.leaseExpiry > up.LeaseExpiry)
}

// Apply installs a chain-replication update from a predecessor, verbatim.
func (s *Shard) Apply(up Update) {
	if s.walHook != nil {
		s.walHook(up)
	}
	f := s.flow(up.Key)
	if up.HasSnap {
		if f.snapSlots == nil || epochNewer(up.SnapEpoch, f.snapEpoch) {
			f.snapEpoch = up.SnapEpoch
			f.snapSlots = make(map[uint32]uint64, s.cfg.SnapshotSlots)
		}
		if up.SnapEpoch == f.snapEpoch {
			for i, v := range up.SnapVals {
				f.snapSlots[up.SnapSlot+uint32(i)] = v
			}
		}
		f.exists = true
		return
	}
	f.vals = append(f.vals[:0], up.Vals...)
	f.lastSeq = up.LastSeq
	f.owner = up.Owner
	f.leaseExpiry = up.LeaseExpiry
	f.exists = up.Exists
}

// CloneFrom replaces this shard's flow table with a deep copy of src's —
// the rejoin resync: a re-splicing replica adopts the chain's current
// truth wholesale. Waiting queues are not cloned (they hold the source
// transport's buffered lease requests; requesters retransmit). The copy
// bypasses the WAL hook by design — after a clone the WAL no longer
// reflects the shard, so the caller MUST take a fresh checkpoint before
// relying on durability again. Returns the number of flows copied.
func (s *Shard) CloneFrom(src *Shard) int {
	flows := make(map[packet.FiveTuple]*flowState, len(src.flows))
	for k, f := range src.flows {
		nf := &flowState{
			exists:       f.exists,
			vals:         append([]uint64(nil), f.vals...),
			lastSeq:      f.lastSeq,
			owner:        f.owner,
			leaseExpiry:  f.leaseExpiry,
			snapEpoch:    f.snapEpoch,
			lastSnapshot: append([]uint64(nil), f.lastSnapshot...),
			lastSnapTime: f.lastSnapTime,
		}
		if f.snapSlots != nil {
			nf.snapSlots = make(map[uint32]uint64, len(f.snapSlots))
			for slot, v := range f.snapSlots {
				nf.snapSlots[slot] = v
			}
		}
		flows[k] = nf
	}
	s.flows = flows
	return len(flows)
}

// State returns a copy of the flow's current values and last applied
// sequence number (for tests and recovery tooling).
func (s *Shard) State(key packet.FiveTuple) (vals []uint64, lastSeq uint64, ok bool) {
	f, found := s.flows[key]
	if !found || !f.exists {
		return nil, 0, false
	}
	return append([]uint64(nil), f.vals...), f.lastSeq, true
}

// Owner returns the current lease holder for the flow (NoOwner if none or
// expired at time now).
func (s *Shard) Owner(key packet.FiveTuple, now int64) int {
	f, found := s.flows[key]
	if !found || f.owner == NoOwner || f.leaseExpiry <= now {
		return NoOwner
	}
	return f.owner
}

// LastSnapshot returns the most recent complete snapshot image for the
// flow and the time it completed, or nil.
func (s *Shard) LastSnapshot(key packet.FiveTuple) ([]uint64, int64) {
	f, found := s.flows[key]
	if !found || f.lastSnapshot == nil {
		return nil, 0
	}
	return append([]uint64(nil), f.lastSnapshot...), f.lastSnapTime
}

// ReplicatedKeys returns the keys of every flow carrying replicated
// write state — the flows Digest hashes — in sorted key order. Flows
// with no replicated write state (lease-only or snapshot-only) are
// excluded: whether their creation reached a given replica is not part
// of the durability promise.
func (s *Shard) ReplicatedKeys() []packet.FiveTuple {
	keys := make([]packet.FiveTuple, 0, len(s.flows))
	for k, f := range s.flows {
		if !f.exists || (len(f.vals) == 0 && f.lastSeq == 0) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	return keys
}

// ExportUpdate returns the flow's replicated write state as an Update
// (no snapshot payload) — the view-change reconciliation currency. ok
// is false for flows without replicated write state (the same filter
// ReplicatedKeys applies).
func (s *Shard) ExportUpdate(key packet.FiveTuple) (Update, bool) {
	f, found := s.flows[key]
	if !found || !f.exists || (len(f.vals) == 0 && f.lastSeq == 0) {
		return Update{}, false
	}
	return Update{
		Key: key, Vals: append([]uint64(nil), f.vals...), LastSeq: f.lastSeq,
		Owner: f.owner, LeaseExpiry: f.leaseExpiry, Exists: true,
	}, true
}

// ExportRange returns the replicated write state of every flow matching
// pred as Updates in sorted key order — the live-migration transfer
// currency: the coordinator exports a moving key range from the source
// chain's resync source and installs it on the destination replicas.
// Lease metadata rides along in the Updates (Owner, LeaseExpiry), which
// is how per-flow leases hand off without a re-grant.
func (s *Shard) ExportRange(pred func(packet.FiveTuple) bool) []Update {
	var ups []Update
	for _, k := range s.ReplicatedKeys() {
		if !pred(k) {
			continue
		}
		if up, ok := s.ExportUpdate(k); ok {
			ups = append(ups, up)
		}
	}
	return ups
}

// DropRange deletes every flow matching pred — replicated, lease-only,
// and snapshot-only state alike — logging a tombstone Update per flow
// through the WAL hook so a cold restart replays the drop rather than
// resurrecting migrated-away flows. Waiting lease requests for dropped
// flows are discarded with them (requesters re-request; the routing
// table no longer points them here). The caller must force a checkpoint
// afterwards if it needs the drop durable immediately rather than at
// the next sync. Returns the number of flows deleted.
func (s *Shard) DropRange(pred func(packet.FiveTuple) bool) int {
	var keys []packet.FiveTuple
	for k := range s.flows {
		if pred(k) {
			keys = append(keys, k)
		}
	}
	// Sorted order keeps the WAL byte-stable across replicas and runs.
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	for _, k := range keys {
		if s.walHook != nil {
			s.walHook(Update{Key: k, Exists: false})
		}
		delete(s.flows, k)
	}
	return len(keys)
}

// foldFlow mixes one flow's replicated write state — key, last applied
// sequence number, values — into h. Every digest in this package is this
// fold over flows in sorted key order, so a shard, a key range, and a
// set of exported Updates holding the same flows hash identically. buf
// is the caller's scratch: it escapes through h, once per digest.
func foldFlow(h hash.Hash64, buf *[8]byte, k packet.FiveTuple, lastSeq uint64, vals []uint64) {
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(k.Src))
	put(uint64(k.Dst))
	put(uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto))
	put(lastSeq)
	put(uint64(len(vals)))
	for _, v := range vals {
		put(v)
	}
}

// DigestUpdates hashes a set of exported Updates exactly the way
// RangeDigest hashes the flows they came from, so a migration can check
// "did the destination install precisely what the sources exported"
// without a throwaway shard.
func DigestUpdates(ups []Update) uint64 {
	sorted := append([]Update(nil), ups...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Key.Less(sorted[b].Key) })
	h := fnv.New64a()
	var buf [8]byte
	for _, up := range sorted {
		foldFlow(h, &buf, up.Key, up.LastSeq, up.Vals)
	}
	return h.Sum64()
}

// RangeDigest is Digest restricted to flows matching pred — the
// transfer-verification gate: after a migration installs a range on the
// destination, source and destination must agree on the moved range's
// digest before the routing epoch flips.
func (s *Shard) RangeDigest(pred func(packet.FiveTuple) bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range s.ReplicatedKeys() {
		if pred(k) {
			f := s.flows[k]
			foldFlow(h, &buf, k, f.lastSeq, f.vals)
		}
	}
	return h.Sum64()
}

// Digest returns an order-independent FNV-1a hash of the shard's durable
// replicated state: for every initialized flow, its key, last applied
// sequence number, and values, iterated in sorted key order. Lease
// metadata and snapshot images are excluded — leases are soft state and
// snapshot slot maps are only assembled where the image completes — so
// after quiescence every replica of a healthy group digests identically.
// The chaos harness uses this for the chain-agreement invariant.
func (s *Shard) Digest() uint64 {
	return s.RangeDigest(func(packet.FiveTuple) bool { return true })
}

// String summarizes the shard for traces.
func (s *Shard) String() string {
	return fmt.Sprintf("shard{flows=%d grants=%d repl=%d}", len(s.flows),
		s.Stats.LeaseGrants, s.Stats.ReplApplied)
}
