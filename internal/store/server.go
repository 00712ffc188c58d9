package store

import (
	"time"

	"redplane/internal/durable"
	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/repl"
	"redplane/internal/wire"
)

// replPort is the UDP port replication-group members talk to each other
// on (historically the chain port; every engine's peer traffic uses it).
const replPort uint16 = 9502

// LocalClock maps simulator time to a node-local clock and back. A nil
// clock is the perfect (identity) clock; netem.Clock satisfies this.
// The store's lease arithmetic runs entirely on local time — what a
// real server's wall clock would drive — so bounded skew between a
// server and its switches is actually exercised, not assumed away.
type LocalClock interface {
	Local(sim int64) int64
	Sim(local int64) int64
}

// DefaultQueueMaxMsgs bounds the service backlog by message count when
// Server.QueueMaxMsgs is zero. It sits above anything the time-based
// QueueLimit admits for single-message traffic (1 ms / 500 ns = 2000),
// so it only bites when large batches would otherwise pile up unbounded
// memory behind a slow shard.
const DefaultQueueMaxMsgs = 4096

// Server is a state store server as a simulator node. A server owns one
// shard replica and drives a replication engine (repl.Replicator) to
// make committed updates fault tolerant — by default the paper's chain
// replication (§6: a group size of 3, servers in different racks), where
// updates forward to the successor and the tail releases acks.
type Server struct {
	name string
	sim  *netsim.Sim
	IP   packet.Addr

	shard *Shard
	port  *netsim.Port
	dead  bool

	// cold marks a FailCold crash: Recover must rebuild the shard from
	// durable state (or from nothing) instead of reusing its memory.
	cold bool

	// eng is the replication engine; every Server has one (chain unless
	// construction options said otherwise).
	eng repl.Replicator

	// next is the chain successor; nil for the tail or for unreplicated
	// deployments.
	next *Server

	// group holds the replication-group peers under the current view, in
	// view order, and self this server's position among them (-1 when
	// not a member). Engines that address peers beyond the chain
	// successor (quorum) read these; Cluster.SetView maintains them.
	group []*Server
	self  int

	// view is the replication view this server believes it is in;
	// inChain is false while the server is spliced out (failed and not
	// yet re-admitted). Engine messages from any other view are dropped.
	view    uint64
	inChain bool

	// dur is the persistence layer (nil when durability is off). pend
	// queues output releases — chain forwards and switch acks — behind
	// the group-commit fsync that makes their updates durable.
	dur    *Durability
	durBE  durable.Backend
	durCfg DurabilityConfig
	pend   []func()
	fsync  *netsim.Timer

	// ServiceTime is the per-message processing cost; requests queue
	// FIFO behind it, making the store the bottleneck for write-heavy
	// workloads exactly as in §7.2.
	ServiceTime time.Duration
	// QueueLimit bounds the service backlog; requests beyond it are
	// dropped like packets at a saturated NIC. Zero means 1 ms.
	QueueLimit time.Duration
	// QueueMaxMsgs additionally bounds the backlog by message count —
	// the knob that keeps batched overload from growing memory without
	// bound while the time-based limit still admits it. Zero means
	// DefaultQueueMaxMsgs.
	QueueMaxMsgs int
	busyUntil    netsim.Time
	queued       int // messages admitted but not yet served

	// SwitchAddr resolves a switch ID to its protocol IP address.
	SwitchAddr func(id int) packet.Addr

	// routeCheck, when set, is the flow-space ownership gate: requests
	// for keys this server does not own under the current routing epoch
	// — or that are fenced mid-migration — are dropped unserved, so the
	// switches' retransmit path carries them across the epoch flip to
	// the owner chain. Nil means the server owns the whole flow space
	// (static single-table routing).
	routeCheck func(packet.FiveTuple) bool

	wake *netsim.Timer

	// clock is the server's local clock (nil = perfect). Shard lease
	// arithmetic sees local time; the wake timer converts back.
	clock LocalClock

	// Observability handles, cached at construction under scope
	// "store/<name>"; the tracer is shared and nil-safe.
	ns                 *obs.Scope
	rxBytes, txBytes   *obs.Counter
	rxFrames, txFrames *obs.Counter
	dropped            *obs.Counter
	sheds              *obs.Counter
	staleViewDrops     *obs.Counter
	wrongRouteDrops    *obs.Counter
	queueNs            *obs.Gauge
	queueDepth         *obs.Gauge
	batchSize          *obs.Gauge
	flowsGauge         *obs.Gauge
	tr                 *obs.Tracer
}

// NewServer creates a store server around a shard. Options select the
// replication engine, queue bounds, and durability; the default is an
// unbounded-release chain member (see Option).
func NewServer(sim *netsim.Sim, name string, ip packet.Addr, shard *Shard,
	service time.Duration, opts ...Option) *Server {
	s := newServerRaw(sim, name, ip, shard, service)
	applyOptions(opts).configure(s, 0, 0)
	return s
}

// newServerRaw builds a server without applying options — the engine is
// not yet installed; every construction path must call options.configure
// before the server sees traffic.
func newServerRaw(sim *netsim.Sim, name string, ip packet.Addr, shard *Shard, service time.Duration) *Server {
	s := &Server{name: name, sim: sim, IP: ip, shard: shard, ServiceTime: service,
		inChain: true}
	reg := sim.Observer()
	if reg == nil {
		reg = obs.NewRegistry() // standalone use keeps Stats() meaningful
	}
	ns := reg.NS("store/" + name)
	s.ns = ns
	s.rxBytes = ns.Counter("rx_bytes")
	s.txBytes = ns.Counter("tx_bytes")
	s.rxFrames = ns.Counter("rx_frames")
	s.txFrames = ns.Counter("tx_frames")
	s.dropped = ns.Counter("dropped_requests")
	s.sheds = ns.Counter("sheds")
	s.staleViewDrops = ns.Counter("stale_view_drops")
	s.wrongRouteDrops = ns.Counter("wrong_route_drops")
	s.queueNs = ns.Gauge("queue_ns")
	s.queueDepth = ns.Gauge("queue_depth")
	s.batchSize = ns.Gauge("batch_size")
	s.flowsGauge = ns.Gauge("flows")
	s.tr = reg.Tracer()
	s.wake = netsim.NewTimer(sim, s.fireWake)
	return s
}

// SetClock installs the server's local clock (nil = perfect clock,
// the exact pre-netem behavior). Call before traffic flows.
func (s *Server) SetClock(c LocalClock) { s.clock = c }

// localNow is the server's local-clock reading of the current instant;
// all shard lease arithmetic uses it.
func (s *Server) localNow() int64 {
	if s.clock == nil {
		return int64(s.sim.Now())
	}
	return s.clock.Local(int64(s.sim.Now()))
}

// ServerStats is a point-in-time snapshot of one store server: its
// traffic counters plus its shard replica's protocol stats and flow
// count.
type ServerStats struct {
	Name               string
	RxBytes, TxBytes   uint64
	RxFrames, TxFrames uint64
	DroppedRequests    uint64
	ShedMsgs           uint64
	StaleViewDrops     uint64
	WrongRouteDrops    uint64
	WALBytes           uint64
	Flows              int
	Shard              Stats
}

// Stats snapshots the server's counters and its shard's stats.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Name:            s.name,
		RxBytes:         s.rxBytes.Value(),
		TxBytes:         s.txBytes.Value(),
		RxFrames:        s.rxFrames.Value(),
		TxFrames:        s.txFrames.Value(),
		DroppedRequests: s.dropped.Value(),
		ShedMsgs:        s.sheds.Value(),
		StaleViewDrops:  s.staleViewDrops.Value(),
		WrongRouteDrops: s.wrongRouteDrops.Value(),
		Flows:           s.shard.Flows(),
		Shard:           s.shard.Stats,
	}
	if s.dur != nil {
		st.WALBytes = s.dur.WALBytes()
	}
	return st
}

// traceLeases compares shard stats around a Process/Flush call and emits
// one event per lease transition the call performed.
func (s *Server) traceLeases(before Stats, key packet.FiveTuple, haveKey bool) {
	if !s.tr.Active() {
		return
	}
	after := s.shard.Stats
	now := int64(s.sim.Now())
	var flow string
	if haveKey {
		flow = key.String()
	}
	emit := func(t obs.EventType, n uint64) {
		for i := uint64(0); i < n; i++ {
			s.tr.Emit(obs.Event{T: now, Type: t, Comp: s.name, Flow: flow})
		}
	}
	emit(obs.EvLeaseGrant, after.LeaseGrants-before.LeaseGrants)
	emit(obs.EvLeaseRenew, after.LeaseRenewals-before.LeaseRenewals)
	emit(obs.EvLeaseMigrate, after.LeaseMigrated-before.LeaseMigrated)
}

// Name implements netsim.Node.
func (s *Server) Name() string { return s.name }

// Alive reports whether the server is processing requests.
func (s *Server) Alive() bool { return !s.dead }

// Fail crashes the server warm: frames are dropped and queued work is
// abandoned until Recover, but the shard's memory survives the crash.
// Outputs waiting on an fsync are lost (never released — the switches'
// retransmissions re-drive them), and WAL records staged but not yet
// synced are discarded: nothing was ever forwarded or acknowledged on
// their behalf, so discarding them is invisible.
func (s *Server) Fail() {
	s.crash(false)
}

// FailCold crashes the server and loses its memory: on Recover the
// shard is rebuilt solely from durable state (checkpoint + WAL), or
// from nothing when durability is off. This is the process-death model
// the warm Fail only approximates.
func (s *Server) FailCold() {
	s.crash(true)
}

func (s *Server) crash(cold bool) {
	s.dead = true
	s.cold = s.cold || cold
	s.pend = nil
	if s.eng != nil {
		s.eng.Crashed() // volatile commit state (pending quorum entries) is gone
	}
	if s.fsync != nil {
		s.fsync.Stop()
	}
	if s.dur != nil {
		s.dur.DiscardStaged()
	}
	if s.tr.Active() {
		s.tr.Emit(obs.Event{T: int64(s.sim.Now()), Type: obs.EvFailure, Comp: s.name})
	}
}

// Recover restarts a crashed server. After a cold crash the shard is
// rebuilt from the durable backend (empty when durability is off); a
// warm crash reuses the shard's memory.
func (s *Server) Recover() {
	s.dead = false
	s.busyUntil = s.sim.Now()
	if s.cold {
		s.cold = false
		s.restoreCold()
	}
	if s.tr.Active() {
		s.tr.Emit(obs.Event{T: int64(s.sim.Now()), Type: obs.EvRecovery, Comp: s.name})
	}
	s.armWake() // lease-expiry wakes skipped while dead are re-armed
}

// restoreCold rebuilds the shard after a memory-losing crash. With
// durability on, the backend outlived the process: reopen the WAL
// (recovering any torn tail) and replay from the newest checkpoint.
// Without durability the state is simply gone.
func (s *Server) restoreCold() {
	cfg := s.shard.cfg
	if s.dur == nil {
		s.shard = NewShard(cfg)
		return
	}
	d, err := NewDurability(s.durBE, s.durCfg, s.ns)
	if err != nil {
		// A backend that cannot even be opened leaves the server with
		// empty state; the chain coordinator will resync it.
		s.shard = NewShard(cfg)
		return
	}
	sh, replayed, err := d.Restore(cfg)
	if err != nil {
		s.shard = NewShard(cfg)
		return
	}
	s.dur = d
	s.shard = sh
	if s.tr.Active() {
		s.tr.Emit(obs.Event{T: int64(s.sim.Now()), Type: obs.EvColdRestore,
			Comp: s.name, V: int64(replayed)})
	}
}

// EnableDurability attaches a persistence layer over be: every shard
// mutation is WAL-logged, outputs are group-committed behind a
// virtual-time fsync, and cold restarts recover from be's checkpoint +
// WAL.
func (s *Server) EnableDurability(be durable.Backend, cfg DurabilityConfig) error {
	d, err := NewDurability(be, cfg, s.ns)
	if err != nil {
		return err
	}
	d.Attach(s.shard)
	s.dur = d
	s.durBE = be
	s.durCfg = d.cfg // with defaults filled in
	s.fsync = netsim.NewTimer(s.sim, s.fireFsync)
	return nil
}

// Durability returns the server's persistence layer (nil when off).
func (s *Server) Durability() *Durability { return s.dur }

// SetView installs the server's replication view: the view number its
// engine messages carry and the only view it accepts, plus whether it
// is a group member at all. Cluster.SetView fans this out to a shard
// row. The engine is notified so it can drop in-flight commit state.
func (s *Server) SetView(view uint64, inChain bool) {
	rejoined := inChain && !s.inChain
	s.view = view
	s.inChain = inChain
	if s.eng != nil {
		s.eng.ViewChanged(view, inChain)
	}
	if rejoined && !s.dead {
		s.armWake() // lease-expiry wakes skipped while out of chain
	}
}

// View returns the server's current chain view number.
func (s *Server) View() uint64 { return s.view }

// InChain reports whether the server believes it is a chain member.
func (s *Server) InChain() bool { return s.inChain }

// Shard exposes the server's shard replica (tests, recovery tooling).
func (s *Server) Shard() *Shard { return s.shard }

// SetPort attaches the server's network port (assigned by topology
// construction).
func (s *Server) SetPort(p *netsim.Port) { s.port = p }

// SetNext links the chain successor.
func (s *Server) SetNext(n *Server) { s.next = n }

// SetGroup installs the server's replication-group peers under the
// current view (members in view order, this server included) and its
// own position among them; self -1 marks a non-member. Call before
// SetView so the engine's view-change hook sees the new group.
func (s *Server) SetGroup(peers []*Server, self int) {
	s.group = peers
	s.self = self
}

// Receive implements netsim.Node: protocol requests from switches and
// replication-engine traffic from group peers.
func (s *Server) Receive(f *netsim.Frame, _ *netsim.Port) {
	if s.dead {
		s.dropped.Inc()
		return
	}
	s.rxBytes.Add(uint64(f.Size))
	s.rxFrames.Inc()
	switch m := f.Msg.(type) {
	case *wire.Message:
		s.serve(1, func() { s.handleRequest(m) })
	case *wire.Batch:
		s.serve(m.Len(), func() { s.handleBatch(m) })
	case repl.Msg:
		s.serve(1, func() { s.handleRepl(m) })
	default:
		// Data packets addressed to the store (misrouted) are dropped.
	}
}

// serve queues fn — carrying n protocol messages — behind the server's
// service time, shedding load beyond the queue bounds. A single message
// costs exactly ServiceTime; a batch costs half a ServiceTime for the
// datagram (receive/dispatch amortization) plus half per message, which
// is where batching wins sustained throughput: n messages in one
// datagram cost (n+1)/2 service times instead of n.
func (s *Server) serve(n int, fn func()) {
	limit := s.QueueLimit
	if limit == 0 {
		limit = time.Millisecond
	}
	maxMsgs := s.QueueMaxMsgs
	if maxMsgs == 0 {
		maxMsgs = DefaultQueueMaxMsgs
	}
	start := max(s.sim.Now(), s.busyUntil)
	s.queueNs.Set(int64(start - s.sim.Now()))
	if start-s.sim.Now() > netsim.Duration(limit) || s.queued+n > maxMsgs {
		s.dropped.Inc()
		s.sheds.Add(uint64(n))
		if s.tr.Active() {
			s.tr.Emit(obs.Event{T: int64(s.sim.Now()), Type: obs.EvQueueShed,
				Comp: s.name, V: int64(n)})
		}
		return
	}
	cost := netsim.Duration(s.ServiceTime)
	if n > 1 {
		cost = cost/2 + netsim.Time(n)*(cost/2)
	}
	done := start + cost
	s.busyUntil = done
	s.queued += n
	s.queueDepth.Set(int64(s.queued))
	s.sim.At(done, func() {
		s.queued -= n
		s.queueDepth.Set(int64(s.queued))
		if s.dead {
			return // crashed while the request was queued
		}
		fn()
	})
}

func (s *Server) handleRequest(m *wire.Message) {
	if !s.eng.CanServe() {
		// Spliced out of the group (or not this engine's serving replica):
		// serving would mutate (and acknowledge) outside the replicated
		// path. The switch retransmits to the current serving replica.
		s.staleViewDrops.Inc()
		return
	}
	if s.routeCheck != nil && !s.routeCheck(m.Key) {
		// Not this chain's key under the current routing epoch (or the
		// key's range is fenced mid-migration). Serving would mutate
		// state the owner chain will never see; the switch's retransmit
		// re-consults the table and lands on the right chain.
		s.wrongRouteDrops.Inc()
		return
	}
	before := s.shard.Stats
	outs, ups := s.shard.Process(s.localNow(), m)
	s.traceLeases(before, m.Key, true)
	s.flowsGauge.Set(int64(s.shard.Flows()))
	s.commit(outs, ups)
	s.armWake()
}

func (s *Server) handleBatch(b *wire.Batch) {
	if !s.eng.CanServe() {
		s.staleViewDrops.Inc()
		return
	}
	msgs := b.Msgs
	if s.routeCheck != nil {
		// Per-message ownership gate: a batch coalesced before an epoch
		// flip may mix owned and migrated-away keys; only the owned ones
		// are served (the rest retransmit to the new owner).
		kept := msgs[:0]
		for _, m := range msgs {
			if s.routeCheck(m.Key) {
				kept = append(kept, m)
			} else {
				s.wrongRouteDrops.Inc()
			}
		}
		msgs = kept
		if len(msgs) == 0 {
			return
		}
	}
	before := s.shard.Stats
	outs, ups := s.shard.ProcessBatch(s.localNow(), msgs)
	s.traceLeases(before, packet.FiveTuple{}, false)
	s.batchSize.Set(int64(b.Len()))
	if s.tr.Active() {
		s.tr.Emit(obs.Event{T: int64(s.sim.Now()), Type: obs.EvBatchFlush,
			Comp: s.name, V: int64(b.Len())})
	}
	s.flowsGauge.Set(int64(s.shard.Flows()))
	s.commit(outs, ups)
	s.armWake()
}

// handleRepl fences and dispatches replication-engine traffic. A message
// from a different view means either this server was spliced out and a
// peer still routed to it, or a spliced-out replica is still sending.
// Both are fenced here — applying would let a stale group member mutate
// or release acks.
func (s *Server) handleRepl(m repl.Msg) {
	if !s.inChain || m.ViewNum() != s.view {
		s.staleViewDrops.Inc()
		return
	}
	s.eng.Handle(m)
}

// commit hands mutating results to the replication engine (which
// releases outputs once replication and durability permit) and releases
// read-only results immediately.
func (s *Server) commit(outs []Output, ups []Update) {
	if len(ups) == 0 {
		s.emitAll(outs) // read-only: nothing to make durable
		return
	}
	s.eng.Commit(ups, outs)
}

// release runs fn immediately when durability is off; otherwise it
// queues fn behind the group-commit fsync covering the updates just
// logged. Chain forwards and switch acks thus never outrun the fsync
// that makes their updates durable — each replica's durable state is a
// superset of everything it has forwarded or acknowledged.
func (s *Server) release(fn func()) {
	if s.dur == nil {
		fn()
		return
	}
	s.pend = append(s.pend, fn)
	s.fsync.Arm(s.sim.Now() + netsim.Duration(s.durCfg.FsyncDelay))
}

func (s *Server) fireFsync() {
	if s.dead {
		return
	}
	if err := s.dur.Sync(int64(s.sim.Now())); err != nil {
		// If the log cannot be persisted, acknowledging would be lying;
		// crash cold so recovery re-derives state from what did persist.
		s.crash(true)
		return
	}
	pend := s.pend
	s.pend = nil
	for _, fn := range pend {
		fn()
	}
}

// emitAll releases outputs to switches. When a batched commit produced
// several acks for the same switch, they leave as one batch datagram —
// the return half of the amortization; single acks keep the plain frame
// so unbatched traffic is byte-identical to the pre-batching pipeline.
func (s *Server) emitAll(outs []Output) {
	if len(outs) <= 1 {
		for i := range outs {
			s.sendSwitch(outs[i].DstSwitch, &outs[i].Msg)
		}
		return
	}
	counts := make(map[int]int, 4)
	for _, o := range outs {
		counts[o.DstSwitch]++
	}
	done := make(map[int]bool, len(counts))
	for i := range outs {
		dst := outs[i].DstSwitch
		if counts[dst] == 1 {
			s.sendSwitch(dst, &outs[i].Msg)
			continue
		}
		if done[dst] {
			continue
		}
		done[dst] = true
		msgs := make([]*wire.Message, 0, counts[dst])
		for j := range outs {
			if outs[j].DstSwitch == dst {
				msgs = append(msgs, &outs[j].Msg)
			}
		}
		s.sendSwitch(dst, &wire.Batch{Msgs: msgs})
	}
}

// send transmits one frame from this server and counts it.
func (s *Server) send(dst packet.Addr, srcPort, dstPort uint16, m interface{ WireLen() int }) {
	f := &netsim.Frame{
		Src: s.IP, Dst: dst,
		Flow: packet.FiveTuple{Src: s.IP, Dst: dst,
			SrcPort: srcPort, DstPort: dstPort, Proto: packet.ProtoUDP},
		Size: m.WireLen(),
		Msg:  m,
	}
	s.txBytes.Add(uint64(f.Size))
	s.txFrames.Inc()
	s.port.Send(f)
}

// sendSwitch transmits an acknowledgment (a *wire.Message, or a
// *wire.Batch of them) to a switch.
func (s *Server) sendSwitch(id int, m interface{ WireLen() int }) {
	s.send(s.SwitchAddr(id), wire.StorePort, wire.SwitchPort, m)
}

// sendPeer transmits an engine message to another group member. Callers
// stamp the message's view before sending.
func (s *Server) sendPeer(dst *Server, m repl.Msg) { s.send(dst.IP, replPort, replPort, m) }

// applyReconciled installs one reconciled flow state (view-change repair
// for quorum groups: see Cluster.SetView) and logs it through the
// durability layer like any replicated apply would.
func (s *Server) applyReconciled(up Update) {
	s.shard.Apply(up)
	s.release(func() {})
}

// chargeBusy extends the server's busy horizon by d: out-of-band work
// (the view-change reconcile transfer) occupies the server for d of
// virtual time, so requests arriving meanwhile queue — and shed —
// behind it exactly as they do behind ordinary service time.
func (s *Server) chargeBusy(d netsim.Time) {
	s.busyUntil = max(s.sim.Now(), s.busyUntil) + d
}

// SetRouteCheck installs (or clears, with nil) the flow-space ownership
// gate; see the routeCheck field. Cluster.UseTable fans this out.
func (s *Server) SetRouteCheck(fn func(packet.FiveTuple) bool) { s.routeCheck = fn }

// InstallRange applies a migrated key range — Updates exported from the
// source chain — to this replica's shard, WAL-logging each apply, and
// forces a checkpoint so the installed range is durable before the
// routing epoch flips (a cold restart in the next instant must not lose
// flows no other chain holds anymore). Returns the flow count.
//
// Like the quorum view-change reconcile, the install itself is
// modeled free of simulated time; the migration drain window is where
// the transfer cost is accounted. DESIGN.md §10 flags this.
func (s *Server) InstallRange(ups []Update) int {
	for _, up := range ups {
		s.shard.Apply(up)
	}
	if s.dur != nil {
		_ = s.dur.ForceCheckpoint(int64(s.sim.Now()))
	}
	s.flowsGauge.Set(int64(s.shard.Flows()))
	return len(ups)
}

// DropRange deletes a migrated-away key range from this replica's shard
// (tombstones WAL-logged by the shard) and forces a checkpoint so a
// cold restart cannot resurrect flows the routing table now sends
// elsewhere. Returns the flow count dropped.
func (s *Server) DropRange(pred func(packet.FiveTuple) bool) int {
	n := s.shard.DropRange(pred)
	if n > 0 && s.dur != nil {
		_ = s.dur.ForceCheckpoint(int64(s.sim.Now()))
	}
	s.flowsGauge.Set(int64(s.shard.Flows()))
	return n
}

// armWake schedules a Flush at the shard's next lease-expiry wake point so
// queued lease requests are granted promptly. The netsim.Timer re-arms
// for an earlier instant when a newly queued waiter's blocking lease
// expires before the pending wake — the old one-shot flag would have
// slept through it.
func (s *Server) armWake() {
	at := s.shard.NextWake()
	if at == 0 {
		return
	}
	if s.clock != nil {
		// NextWake is a local-clock deadline; the timer runs in sim time.
		at = s.clock.Sim(at)
	}
	s.wake.Arm(netsim.Time(at))
}

func (s *Server) fireWake() {
	if s.dead {
		return // Recover re-arms the wake timer
	}
	if !s.eng.CanServe() {
		return // rejoin re-arms via SetView
	}
	before := s.shard.Stats
	outs, ups := s.shard.Flush(s.localNow())
	s.traceLeases(before, packet.FiveTuple{}, false)
	s.commit(outs, ups)
	s.armWake()
}
