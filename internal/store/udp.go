package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"redplane/internal/durable"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/ring"
	"redplane/internal/wire"
)

// UDPServer serves the RedPlane wire protocol over a real UDP socket —
// the deployment mode of cmd/redplane-store. Chain replication works
// across processes exactly as in the simulator (chainEngine): only the
// replica a switch addresses runs the request; what it sends its
// successor is a view-stamped chain frame — the commit's updates plus the
// held acknowledgment and the requester's address — which each successor
// fences by view, applies verbatim, makes durable, and forwards, until
// the tail sends the acknowledgment straight back to the switch.
//
// Internally the server is sharded by flow (DESIGN.md "Per-core
// sharding on the real-UDP path"): a small set of receiver goroutines
// drain the socket with batched recvmmsg reads (single-read fallback
// off Linux), hash each datagram's five-tuple to its owning shard, and
// hand it over on a lock-free SPSC ring. Every flow's state is touched
// by exactly one shard goroutine, so the data path needs no per-flow
// locking; egress leaves through per-shard sendmmsg batches, and with
// durability enabled one group-commit fsync covers a whole drained
// batch (durable ⊇ forwarded ⊇ acked, per shard).
type UDPServer struct {
	conn *net.UDPConn
	next atomic.Pointer[net.UDPAddr] // chain successor (nil = tail / no chain)
	cfg  Config
	opt  UDPOptions

	// Control-plane facts, settable at runtime by a redplane-ctl agent
	// and reported in MsgHello replies. chainPos is -1 until the control
	// plane announces a position; relaySeen latches once any chain frame
	// arrives (a mid-chain tell even without a control plane). view stamps
	// every chain frame sent and fences every one received.
	chainPos  atomic.Int32
	view      atomic.Uint64
	relaySeen atomic.Bool

	reg    *obs.Registry
	ioName string // "mmsg" or "portable"

	pool sync.Pool // *[]byte datagram buffers, cap udpBufSize

	shards []*udpShard
	recvs  []*udpReceiver

	rxBatches      *obs.Counter
	rxDgrams       *obs.Counter
	badDgrams      *obs.Counter
	misrouteDrops  *obs.Counter
	staleViewDrops *obs.Counter

	serving  atomic.Bool
	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
}

// leaseFlushTick is how often each shard sweeps expired leases with
// queued waiters.
const leaseFlushTick = 50 * time.Millisecond

// maxDrainBurst bounds the datagrams a shard processes per group
// commit, so acknowledgments are not starved under sustained ingress.
const maxDrainBurst = 256

// maxInternAddrs bounds a receiver's address intern table. Datagram
// sources are outside input, so the table is reset rather than grown
// once it holds this many peers.
const maxInternAddrs = 1024

// UDPOptions sizes the sharded server. The zero value of each field
// selects its default.
type UDPOptions struct {
	// Shards is the number of shard-owner goroutines; flows hash to
	// shards by five-tuple. Default 1. cmd/redplane-store defaults its
	// -shards flag to the core count instead.
	Shards int
	// Receivers is the number of goroutines draining the socket.
	// Default: 1 for a single shard, else 2.
	Receivers int
	// RxBatch is the datagrams read per recvmmsg call (default 32).
	RxBatch int
	// TxBatch is the datagrams per shard sendmmsg call (default 32).
	TxBatch int
	// RingSize is each receiver→shard SPSC ring's capacity (default
	// 1024, rounded up to a power of two). A full ring sheds — the
	// switch retransmits, like any other UDP loss.
	RingSize int
	// CommitBurst bounds the datagrams a shard processes per group
	// commit (default 256). 1 reproduces the pre-sharding behavior —
	// one fsync per mutating datagram — which is what the goodput
	// benchmark's baseline measures.
	CommitBurst int

	forcePortable bool
}

// UDPOption configures NewUDPServer.
type UDPOption func(*UDPOptions)

// WithUDPShards sets the shard-owner goroutine count.
func WithUDPShards(n int) UDPOption { return func(o *UDPOptions) { o.Shards = n } }

// WithUDPReceivers sets the socket-draining goroutine count.
func WithUDPReceivers(n int) UDPOption { return func(o *UDPOptions) { o.Receivers = n } }

// WithUDPBatch sets the rx (recvmmsg) and tx (sendmmsg) syscall batch
// sizes; 0 keeps a side's default.
func WithUDPBatch(rx, tx int) UDPOption {
	return func(o *UDPOptions) { o.RxBatch, o.TxBatch = rx, tx }
}

// WithUDPRing sets the per-receiver-per-shard ring capacity.
func WithUDPRing(n int) UDPOption { return func(o *UDPOptions) { o.RingSize = n } }

// WithUDPCommitBurst bounds datagrams per shard group commit.
func WithUDPCommitBurst(n int) UDPOption { return func(o *UDPOptions) { o.CommitBurst = n } }

// WithUDPPortableIO forces the portable single-datagram syscall path
// even where the batched recvmmsg/sendmmsg one is available — for
// debugging and for the CI equivalence tests.
func WithUDPPortableIO() UDPOption { return func(o *UDPOptions) { o.forcePortable = true } }

func (o *UDPOptions) fill() error {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Receivers == 0 {
		o.Receivers = min(o.Shards, 2)
	}
	if o.RxBatch == 0 {
		o.RxBatch = 32
	}
	if o.TxBatch == 0 {
		o.TxBatch = 32
	}
	if o.RingSize == 0 {
		o.RingSize = 1024
	}
	if o.CommitBurst == 0 {
		o.CommitBurst = maxDrainBurst
	}
	if o.Shards < 1 || o.Receivers < 1 || o.RxBatch < 1 || o.TxBatch < 1 || o.RingSize < 2 ||
		o.CommitBurst < 1 {
		return fmt.Errorf("store: invalid UDP options %+v", *o)
	}
	return nil
}

// NewUDPServer binds the server to addr (e.g. "127.0.0.1:9500").
// nextAddr, when non-empty, is the chain successor. Goroutines start in
// Serve.
func NewUDPServer(addr, nextAddr string, cfg Config, opts ...UDPOption) (*UDPServer, error) {
	var opt UDPOptions
	for _, fn := range opts {
		fn(&opt)
	}
	if err := opt.fill(); err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("store: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("store: listen: %w", err)
	}
	// Best effort: absorb ingress bursts between batched drains
	// (unprivileged processes are capped by net.core.rmem_max).
	conn.SetReadBuffer(sockBufBytes)
	conn.SetWriteBuffer(sockBufBytes)
	s := &UDPServer{
		conn: conn, cfg: cfg, opt: opt,
		reg:  obs.NewRegistry(),
		stop: make(chan struct{}),
	}
	s.pool.New = func() any { b := make([]byte, udpBufSize); return &b }
	udpNS := s.reg.NS("udp")
	s.rxBatches = udpNS.Counter("rx_batches")
	s.rxDgrams = udpNS.Counter("rx_dgrams")
	s.badDgrams = udpNS.Counter("bad_dgrams")
	s.misrouteDrops = udpNS.Counter("misroute_drops")
	s.staleViewDrops = udpNS.Counter("stale_view_drops")
	s.chainPos.Store(-1)
	if nextAddr != "" {
		na, err := net.ResolveUDPAddr("udp", nextAddr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("store: resolve successor %q: %w", nextAddr, err)
		}
		s.next.Store(na)
	}

	// newIO builds one reader/writer pair; each receiver and each shard
	// gets its own so scratch arrays are never shared across goroutines
	// (the fd itself is safe to share — the kernel serializes datagrams).
	newIO := func() (batchReader, batchWriter, string) {
		if opt.forcePortable {
			return newPortableIO(conn)
		}
		return newPlatformIO(conn)
	}

	s.shards = make([]*udpShard, opt.Shards)
	for i := range s.shards {
		ns := s.reg.NS(fmt.Sprintf("udp-shard%d", i))
		sh := &udpShard{
			srv: s, idx: i,
			sh:    NewShard(cfg),
			addrs: make(map[int]*net.UDPAddr),
			wake:  make(chan struct{}, 1),
			rings: make([]*ring.SPSC[dgram], opt.Receivers),
			tx: &txBatcher{
				slots:     make([]txSlot, opt.TxBatch),
				txBatches: ns.Counter("tx_batches"),
				txDgrams:  ns.Counter("tx_dgrams"),
			},
			queueDepth: ns.Gauge("queue_depth"),
			dgrams:     ns.Counter("dgrams"),
			sheds:      ns.Counter("sheds"),
			replies:    ns.Counter("replies"),
			relays:     ns.Counter("relays"),
			commits:    ns.Counter("commits"),
		}
		_, sh.tx.bw, s.ioName = newIO()
		for r := range sh.rings {
			sh.rings[r] = ring.New[dgram](opt.RingSize)
		}
		s.shards[i] = sh
	}

	s.recvs = make([]*udpReceiver, opt.Receivers)
	for i := range s.recvs {
		rbr, _, _ := newIO()
		rx := &udpReceiver{
			srv: s, idx: i, br: rbr,
			slots:   make([]rxSlot, opt.RxBatch),
			addrs:   make(map[netip.AddrPort]*net.UDPAddr),
			touched: make([]bool, opt.Shards),
		}
		for j := range rx.slots {
			rx.slots[j].buf = s.getBuf()
		}
		s.recvs[i] = rx
	}
	return s, nil
}

// getBuf and putBuf move the pool's own *[]byte handle, so recycling a
// buffer never re-boxes its slice header. *b keeps len == cap; users
// slice it, never assign through it.
func (s *UDPServer) getBuf() *[]byte  { return s.pool.Get().(*[]byte) }
func (s *UDPServer) putBuf(b *[]byte) { s.pool.Put(b) }

// shardFor routes a flow key to its owning shard. Receivers and the
// client-side sweep both use it, so a flow's datagrams always land on
// the same goroutine.
func (s *UDPServer) shardFor(key packet.FiveTuple) int {
	return int(key.Hash() % uint64(len(s.shards)))
}

// Shards returns the configured shard count.
func (s *UDPServer) Shards() int { return len(s.shards) }

// IOPath reports which batched-syscall implementation the server is
// using: "mmsg" or "portable".
func (s *UDPServer) IOPath() string { return s.ioName }

// Obs exposes the server's metric registry (udp/* and udp-shard<i>/*
// scopes, plus store-shard<i>/* when durability is enabled).
func (s *UDPServer) Obs() *obs.Registry { return s.reg }

// EnableDurability attaches a durable backend to a single-shard server:
// the shard is replaced by one recovered from the backend's newest
// checkpoint plus the WAL tail, and every later mutation is logged and
// fsynced before its ack or chain relay escapes. Call before Serve.
// Returns the number of WAL records replayed. Multi-shard servers need
// one backend per shard; use EnableDurabilityBackends.
func (s *UDPServer) EnableDurability(be durable.Backend, cfg DurabilityConfig) (int, error) {
	if len(s.shards) != 1 {
		return 0, fmt.Errorf("store: EnableDurability needs one backend per shard (%d shards); use EnableDurabilityBackends", len(s.shards))
	}
	return s.EnableDurabilityBackends([]durable.Backend{be}, cfg)
}

// EnableDurabilityBackends attaches one durable backend per shard (the
// flow→shard hash is stable, so a shard's WAL only ever holds its own
// flows — provided the shard count does not change between restarts;
// cmd/redplane-store records the count next to the WAL and refuses a
// mismatch). Call before Serve. Returns total WAL records replayed.
func (s *UDPServer) EnableDurabilityBackends(bes []durable.Backend, cfg DurabilityConfig) (int, error) {
	if s.serving.Load() {
		return 0, errors.New("store: EnableDurabilityBackends after Serve")
	}
	if len(bes) != len(s.shards) {
		return 0, fmt.Errorf("store: %d backends for %d shards", len(bes), len(s.shards))
	}
	total := 0
	for i, be := range bes {
		d, err := NewDurability(be, cfg, s.reg.NS(fmt.Sprintf("store-shard%d", i)))
		if err != nil {
			return 0, err
		}
		sh, replayed, err := d.Restore(s.cfg)
		if err != nil {
			return 0, err
		}
		s.shards[i].sh = sh
		s.shards[i].dur = d
		total += replayed
	}
	return total, nil
}

// Addr returns the bound address.
func (s *UDPServer) Addr() net.Addr { return s.conn.LocalAddr() }

// State reads a flow's state, fenced against the owning shard goroutine.
func (s *UDPServer) State(key packet.FiveTuple) (vals []uint64, lastSeq uint64, ok bool) {
	sh := s.shards[s.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sh.State(key)
}

// Digest hashes the server's committed replicated state — the digest a
// single Shard holding the union of every shard's flows would return.
// The contract is shard-count invariance: the value is comparable
// across restarts, across servers configured with different -shards
// counts, and with simulator shards, because the flow→shard partition
// never enters the hash (DigestUpdates sorts by key before folding).
func (s *UDPServer) Digest() uint64 { return DigestUpdates(s.ExportState()) }

// UDPStats is a point-in-time snapshot of the server's counters.
type UDPStats struct {
	RxBatches, RxDgrams, BadDgrams uint64
	TxBatches, TxDgrams            uint64
	Replies, Relays, Sheds         uint64
	PerShard                       []UDPShardStats
}

// UDPShardStats is one shard's slice of the counters.
type UDPShardStats struct {
	Dgrams, Sheds, Replies, Relays uint64
	// Commits counts group commits that released at least one relay or
	// acknowledgment; Dgrams / Commits is the mean commit-group size.
	Commits               uint64
	QueueDepth, QueueHigh int64
}

// Stats snapshots the server's observability counters.
func (s *UDPServer) Stats() UDPStats {
	st := UDPStats{
		RxBatches: s.rxBatches.Value(),
		RxDgrams:  s.rxDgrams.Value(),
		BadDgrams: s.badDgrams.Value(),
	}
	for _, sh := range s.shards {
		ps := UDPShardStats{
			Dgrams: sh.dgrams.Value(), Sheds: sh.sheds.Value(),
			Replies: sh.replies.Value(), Relays: sh.relays.Value(),
			Commits:    sh.commits.Value(),
			QueueDepth: sh.queueDepth.Value(), QueueHigh: sh.queueDepth.High(),
		}
		st.TxBatches += sh.tx.txBatches.Value()
		st.TxDgrams += sh.tx.txDgrams.Value()
		st.Replies += ps.Replies
		st.Relays += ps.Relays
		st.Sheds += ps.Sheds
		st.PerShard = append(st.PerShard, ps)
	}
	return st
}

// Close shuts the server down.
func (s *UDPServer) Close() error {
	s.closed.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	return s.conn.Close()
}

// Serve runs the receiver and shard goroutines until Close. It returns
// nil on a clean shutdown, or the first receiver error.
func (s *UDPServer) Serve() error {
	if !s.serving.CompareAndSwap(false, true) {
		return errors.New("store: Serve called twice")
	}
	errCh := make(chan error, len(s.recvs))
	var wgRecv, wgShard sync.WaitGroup
	for _, sh := range s.shards {
		wgShard.Add(1)
		go func(sh *udpShard) { defer wgShard.Done(); sh.run() }(sh)
	}
	for _, r := range s.recvs {
		wgRecv.Add(1)
		go func(r *udpReceiver) { defer wgRecv.Done(); r.run(errCh) }(r)
	}
	// A dead receiver set (socket closed or failed) ends the server.
	wgRecv.Wait()
	s.stopOnce.Do(func() { close(s.stop) })
	wgShard.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// dgram is one routed unit of work handed from a receiver to a shard:
// a switch's request (single-message or batch framing, with the batch's
// members already decoded) or a predecessor's chain frame.
type dgram struct {
	base    *[]byte         // pooled backing buffer to recycle
	payload []byte          // the datagram, a span of *base
	msgs    []*wire.Message // decoded batch members; nil ⇒ payload is one message or a chain frame
	origin  *net.UDPAddr    // requester to acknowledge (interned: shared, never mutated; nil = unknown)
	chain   bool            // payload is a chain frame from the predecessor, not a switch's request
}

// udpReceiver drains the socket and routes datagrams to shard rings.
type udpReceiver struct {
	srv    *UDPServer
	idx    int
	br     batchReader
	slots  []rxSlot
	group  []splitGroup // per-shard split-batch scratch
	frames [][]byte     // member-frame scratch (spans of the rx buffer)

	// addrs interns datagram sources and chain-frame requesters: the same
	// few peers send almost every datagram, so each gets one *net.UDPAddr
	// shared by sh.addrs, pendingReply and pendingRelay. Never mutate one.
	addrs map[netip.AddrPort]*net.UDPAddr
	// touched marks the shards the current rx batch pushed work to.
	touched []bool
}

// splitGroup collects one shard's members of a spanning batch: the
// decoded messages (handed to the shard so it need not re-decode) and
// their framed byte spans in the original datagram (concatenated under
// a fresh batch header to form the shard's sub-batch — no re-marshal).
type splitGroup struct {
	msgs   []*wire.Message
	frames [][]byte
}

func (r *udpReceiver) run(errCh chan<- error) {
	s := r.srv
	for {
		n, err := r.br.ReadBatch(r.slots)
		if err != nil {
			if s.closed.Load() {
				return
			}
			errCh <- fmt.Errorf("store: read: %w", err)
			// Unblock Serve's shutdown even on a spontaneous failure.
			s.stopOnce.Do(func() { close(s.stop) })
			return
		}
		s.rxBatches.Inc()
		s.rxDgrams.Add(uint64(n))
		// Route the whole batch, then wake each touched shard once: a
		// commit group is never smaller than what one syscall delivered
		// for that shard.
		for i := 0; i < n; i++ {
			r.route(&r.slots[i])
		}
		for si, t := range r.touched {
			if !t {
				continue
			}
			r.touched[si] = false
			sh := s.shards[si]
			sh.queueDepth.Set(int64(sh.ringLen()))
			select {
			case sh.wake <- struct{}{}:
			default:
			}
		}
	}
}

// intern returns the shared *net.UDPAddr for ap, allocating only the
// first time a peer is seen (and again after a reset).
func (r *udpReceiver) intern(ap netip.AddrPort) *net.UDPAddr {
	if a, ok := r.addrs[ap]; ok {
		return a
	}
	if len(r.addrs) >= maxInternAddrs {
		clear(r.addrs)
	}
	a := net.UDPAddrFromAddrPort(ap)
	r.addrs[ap] = a
	return a
}

// route hands one received datagram to its owning shard. Single-message
// frames and chain frames are routed by a key peek and decoded by the
// shard; batch frames are decoded here (splitting them requires it) and
// re-framed per shard when their members span several. A chain frame is
// never split: its sender built it from one shard's commit, and every
// chain member runs the same shard count.
func (r *udpReceiver) route(sl *rxSlot) {
	s := r.srv
	payload := (*sl.buf)[:sl.n]
	if wire.IsBatch(payload) {
		var bt wire.Batch
		if err := bt.Unmarshal(payload); err != nil {
			s.badDgrams.Inc()
			log.Printf("store: bad batch from %v: %v", sl.addr, err)
			return
		}
		if len(bt.Msgs) == 0 {
			return
		}
		origin := r.intern(sl.addr)
		target := s.shardFor(bt.Msgs[0].Key)
		same := true
		for _, m := range bt.Msgs[1:] {
			if s.shardFor(m.Key) != target {
				same = false
				break
			}
		}
		if same {
			r.deliver(target, dgram{base: sl.buf, payload: payload, msgs: bt.Msgs, origin: origin})
			sl.buf = s.getBuf() // ownership moved to the ring
			return
		}
		// Split: each shard's members become their own sub-batch,
		// assembled by copying the members' framed byte ranges out of
		// the original datagram — the messages are never re-marshaled.
		// The original slot buffer stays with the receiver.
		frames, err := wire.MemberFrames(payload, r.frames[:0])
		r.frames = frames[:0]
		if err != nil {
			// Unreachable after a successful Unmarshal of the same bytes.
			s.badDgrams.Inc()
			return
		}
		if r.group == nil {
			r.group = make([]splitGroup, len(s.shards))
		}
		for i, m := range bt.Msgs {
			si := s.shardFor(m.Key)
			g := &r.group[si]
			g.msgs = append(g.msgs, m)
			g.frames = append(g.frames, frames[i])
		}
		for si := range r.group {
			g := &r.group[si]
			if len(g.msgs) == 0 {
				continue
			}
			nb := s.getBuf()
			pb := wire.AppendBatchFrames((*nb)[:0], g.frames...)
			r.deliver(si, dgram{base: nb, payload: pb, msgs: g.msgs, origin: origin})
			// The msgs slice moved to the shard; the frame spans die with
			// this datagram and their backing array is reused.
			g.msgs, g.frames = nil, g.frames[:0]
		}
		return
	}
	d := dgram{base: sl.buf, payload: payload, chain: len(payload) > 0 && payload[0] == chainMagic}
	key, ok := wire.PeekKey(payload)
	requester := sl.addr
	if d.chain {
		if key, ok = frameFirstKey(payload); ok {
			requester = frameRequester(payload)
			s.relaySeen.Store(true)
		}
	}
	if !ok {
		s.badDgrams.Inc()
		log.Printf("store: bad datagram from %v (%d bytes)", sl.addr, len(payload))
		return
	}
	if !d.chain || requester.Port() != 0 { // a chain frame may name no requester
		d.origin = r.intern(requester)
	}
	r.deliver(s.shardFor(key), d)
	sl.buf = s.getBuf()
}

// deliver queues d on its shard's ring; run wakes the shard once the
// whole rx batch is routed.
func (r *udpReceiver) deliver(shard int, d dgram) {
	sh := r.srv.shards[shard]
	if !sh.rings[r.idx].Push(d) {
		sh.sheds.Inc()
		r.srv.putBuf(d.base)
		return
	}
	r.touched[shard] = true
}

// A chain frame is repl.ChainMsg on a real socket — what a replica sends
// its successor for one commit:
//
//	magic(1) view(8) requester addr(16) port(2) count(2)
//	{ len(2) EncodeUpdate }*count   acknowledgment datagram (may be empty)
//
// view is the sender's when the frame left it: every hop re-stamps it and
// a receiver drops a frame whose view is not its own. The requester is
// the switch socket the tail sends the acknowledgment part to (port 0 =
// unknown, nothing to acknowledge). Updates use the WAL's record
// encoding; header integers are big-endian like the rest of the wire.
const (
	// chainMagic cannot start a request: those begin with the high byte
	// of a sequence number, or the batch magic.
	chainMagic    byte = 0xC4
	chainViewOff       = 1
	chainAddrOff       = chainViewOff + 8
	chainCountOff      = chainAddrOff + 16 + 2
	chainHdrLen        = chainCountOff + 2
	maxChainFrame      = 65507 // largest UDP payload: a longer frame cannot be sent
	// chainGrowth bounds how far one message's update and acknowledgment
	// exceed its request encoding, when its flow's state is no wider than
	// the values it carries (a snapshot slot update is the worst case).
	chainGrowth = 52
)

var errChainFrame = errors.New("store: truncated chain frame")

// appendChainFrame appends one commit's frame to b, view zero until
// stageRelay stamps it, and returns the frame and its acknowledgment
// part. With no known requester (nil) the updates still replicate; the
// frame then carries no acknowledgment.
func appendChainFrame(b []byte, requester *net.UDPAddr, ups []Update, outs []Output) (frame, ack []byte) {
	var ap netip.AddrPort
	if requester != nil {
		ap = requester.AddrPort()
	}
	a16 := ap.Addr().As16()
	b = append(b, chainMagic, 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(b, a16[:]...)
	b = binary.BigEndian.AppendUint16(b, ap.Port())
	b = binary.BigEndian.AppendUint16(b, uint16(len(ups)))
	for _, up := range ups {
		at := len(b)
		b = EncodeUpdate(append(b, 0, 0), up)
		binary.BigEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	at := len(b)
	if requester != nil && len(outs) > 0 {
		b = appendAcks(b, outs)
	}
	return b, b[at:]
}

// frameFirstKey peeks the key of a frame's first update, which routes the
// frame to its shard. False for a frame too short to hold one update.
func frameFirstKey(b []byte) (packet.FiveTuple, bool) {
	const keyOff = chainHdrLen + 2 + 1 // length prefix, flags byte
	if len(b) < keyOff {
		return packet.FiveTuple{}, false
	}
	k, _, err := getKey(b[keyOff:])
	return k, err == nil
}

// frameRequester reads the requester of a frame frameFirstKey accepted.
func frameRequester(b []byte) netip.AddrPort {
	addr := netip.AddrFrom16([16]byte(b[chainAddrOff : chainAddrOff+16])).Unmap()
	return netip.AddrPortFrom(addr, binary.BigEndian.Uint16(b[chainAddrOff+16:]))
}

// decodeChainFrame decodes every update of a frame into ups (reusing its
// backing array) and returns them with the acknowledgment part, which
// aliases b. Any malformation fails the whole frame: a receiver applies
// all of a commit or none of it.
func decodeChainFrame(b []byte, ups []Update) ([]Update, []byte, error) {
	if len(b) < chainHdrLen || b[0] != chainMagic {
		return ups, nil, errChainFrame
	}
	n := int(binary.BigEndian.Uint16(b[chainCountOff:]))
	if n == 0 {
		return ups, nil, errors.New("store: chain frame without updates")
	}
	b = b[chainHdrLen:]
	for ; n > 0; n-- {
		if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
			return ups, nil, errChainFrame
		}
		l := 2 + int(binary.BigEndian.Uint16(b))
		up, err := DecodeUpdate(b[2:l])
		if err != nil {
			return ups, nil, err
		}
		ups, b = append(ups, up), b[l:]
	}
	return ups, b, nil
}

// pendingReply is an acknowledgment datagram held until the covering
// group commit.
type pendingReply struct {
	outs []Output
	to   *net.UDPAddr
}

// pendingRelay is a chain frame — built here from a commit, or received
// and applied — held until the covering group commit. ack is the part of
// frame the tail sends to origin.
type pendingRelay struct {
	base   *[]byte
	frame  []byte
	ack    []byte
	origin *net.UDPAddr
}

// udpShard owns one partition of the flow space: exactly one goroutine
// (run) touches sh, dur, addrs, and tx while serving. mu fences the
// rare out-of-band readers (State/Digest/Stats and pre-Serve setup); it
// is taken once per drained batch, never per datagram.
type udpShard struct {
	srv *UDPServer
	idx int

	mu    sync.Mutex
	sh    *Shard
	dur   *Durability
	addrs map[int]*net.UDPAddr

	rings []*ring.SPSC[dgram]
	wake  chan struct{}
	tx    *txBatcher

	pendingOut   []pendingReply
	pendingRelay []pendingRelay
	ups          []Update         // applyChain's decode scratch
	one          [1]*wire.Message // handle's one-message batch

	queueDepth *obs.Gauge
	dgrams     *obs.Counter
	sheds      *obs.Counter
	replies    *obs.Counter
	relays     *obs.Counter
	commits    *obs.Counter
}

func (sh *udpShard) ringLen() int {
	n := 0
	for _, r := range sh.rings {
		n += r.Len()
	}
	return n
}

func (sh *udpShard) run() {
	tick := time.NewTicker(leaseFlushTick)
	defer tick.Stop()
	for {
		select {
		case <-sh.srv.stop:
			return
		case <-sh.wake:
			sh.drain()
		case <-tick.C:
			sh.flushLeases()
		}
	}
}

// drain services every queued datagram in self-clocked commit groups:
// process until the rings are empty or CommitBurst is reached, fsync
// once for the group's mutations, then release its relays and
// acknowledgments in one egress batch. Nothing waits for more work — the
// next group is whatever the receivers queued while this one was
// applied, synced and sent, so groups grow with device latency on their
// own and an idle shard adds none.
func (sh *udpShard) drain() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	commitBurst := sh.srv.opt.CommitBurst
	for {
		processed := 0
		for _, r := range sh.rings {
			for processed < commitBurst {
				d, ok := r.Pop()
				if !ok {
					break
				}
				sh.handle(d)
				processed++
			}
		}
		sh.queueDepth.Set(int64(sh.ringLen()))
		if processed == 0 {
			return
		}
		sh.commit()
	}
}

// handle stages one datagram's effects for the next commit. A switch's
// request is decided here, on this replica's clock; a mutation with a
// successor leaves as a chain frame, anything else is answered from here.
func (sh *udpShard) handle(d dgram) {
	if d.chain {
		sh.applyChain(d)
		return
	}
	msgs := d.msgs
	if msgs == nil {
		m := new(wire.Message)
		if err := m.Unmarshal(d.payload); err != nil {
			sh.srv.badDgrams.Inc()
			log.Printf("store: bad datagram from %v: %v", d.origin, err)
			sh.srv.putBuf(d.base)
			return
		}
		if m.Type == wire.MsgHello {
			// Deployment handshake: answer immediately with topology
			// facts; never touches flow state or the WAL.
			sh.dgrams.Inc()
			sh.hold(d.base, d.origin, nil, []Output{{Msg: sh.srv.helloAck(m)}})
			return
		}
		sh.one[0] = m
		msgs = sh.one[:]
	}
	if sh.srv.misrouted(msgs...) {
		sh.srv.putBuf(d.base)
		return
	}
	if sh.srv.next.Load() != nil && chainHdrLen+len(d.payload)+chainGrowth*len(msgs) > maxChainFrame {
		// The commit's frame might not fit a datagram: refuse the request
		// while nothing has changed, rather than decide what cannot travel.
		sh.srv.badDgrams.Inc()
		log.Printf("store: %d-byte request of %d messages from %v is too large to relay", len(d.payload), len(msgs), d.origin)
		sh.srv.putBuf(d.base)
		return
	}
	for _, m := range msgs {
		sh.addrs[m.SwitchID] = d.origin
	}
	outs, ups := sh.sh.ProcessBatch(time.Now().UnixNano(), msgs)
	sh.dgrams.Inc()
	// Nothing Unmarshal returned aliases the rx buffer, so a chain frame is
	// built over the request in place.
	sh.hold(d.base, d.origin, ups, outs)
}

// hold stages one commit of this replica for the group commit: with a
// successor and something to replicate, as a chain frame built in *base
// (nil: a fresh buffer); otherwise as a reply from here.
func (sh *udpShard) hold(base *[]byte, origin *net.UDPAddr, ups []Update, outs []Output) {
	if len(ups) > 0 && sh.srv.next.Load() != nil {
		if base == nil {
			base = sh.srv.getBuf()
		}
		frame, ack := appendChainFrame((*base)[:0], origin, ups, outs)
		if len(frame) <= maxChainFrame {
			sh.pendingRelay = append(sh.pendingRelay, pendingRelay{base: base, frame: frame, ack: ack, origin: origin})
			return
		}
		// Past handle's estimate only when stored state is far wider than
		// the requests touching it: it cannot travel, so it is not acked.
		sh.srv.badDgrams.Inc()
		log.Printf("store: commit of %d updates for %v exceeds a datagram, dropped", len(ups), origin)
	} else if len(outs) > 0 && origin != nil {
		sh.pendingOut = append(sh.pendingOut, pendingReply{outs: outs, to: origin})
	}
	if base != nil {
		sh.srv.putBuf(base)
	}
}

// applyChain installs a predecessor's chain frame: fence the view as
// Server.handleRepl does, decode every update before applying any, copy
// them into the shard verbatim (through the WAL hook) unless the flow is
// already past them, and hold the frame for this replica's group commit.
func (sh *udpShard) applyChain(d dgram) {
	srv := sh.srv
	if binary.BigEndian.Uint64(d.payload[chainViewOff:]) != srv.view.Load() {
		srv.staleViewDrops.Inc()
		srv.putBuf(d.base)
		return
	}
	ups, ack, err := decodeChainFrame(d.payload, sh.ups[:0])
	sh.ups = ups
	for i := 0; err == nil && i < len(ups); i++ {
		if si := srv.shardFor(ups[i].Key); si != sh.idx {
			err = fmt.Errorf("update for %v belongs to shard %d, not %d: chain members must run equal -shards",
				ups[i].Key, si, sh.idx)
		}
	}
	if err != nil {
		srv.badDgrams.Inc()
		log.Printf("store: bad chain frame: %v", err)
		srv.putBuf(d.base)
		return
	}
	for _, up := range ups {
		// Frames overtake each other — between hosts, and between this
		// server's receivers. One overtaken by a later write of its flow
		// changes nothing here, but still travels on with its ack.
		if !sh.sh.Stale(up) {
			sh.sh.Apply(up)
		}
	}
	sh.dgrams.Inc()
	sh.pendingRelay = append(sh.pendingRelay, pendingRelay{base: d.base, frame: d.payload, ack: ack, origin: d.origin})
}

// commit makes the staged mutations durable (one fsync for the whole
// burst), then releases every held chain frame and acknowledgment through
// the shard's egress batch. On a failed sync nothing escapes — the staged
// WAL records remain for the next attempt and the switches retransmit.
func (sh *udpShard) commit() {
	if sh.dur != nil && sh.dur.StagedRecords() > 0 {
		if err := sh.dur.Sync(time.Now().UnixNano()); err != nil {
			log.Printf("store: wal sync: %v", err)
			sh.dropPending()
			return
		}
	}
	if len(sh.pendingRelay)+len(sh.pendingOut) > 0 {
		sh.commits.Inc()
	}
	for i := range sh.pendingRelay {
		sh.stageRelay(&sh.pendingRelay[i])
	}
	for i := range sh.pendingOut {
		po := &sh.pendingOut[i]
		sh.staged(sh.replies, sh.tx.stage(po.to, func(b []byte) []byte { return appendAcks(b, po.outs) }))
	}
	sh.dropPending() // staging copied the bytes; recycle the holds
	sh.staged(nil, sh.tx.flush())
}

// dropPending recycles and forgets everything held for a commit: after a
// failed sync, so that nothing escapes, or once it has all been staged.
func (sh *udpShard) dropPending() {
	for i := range sh.pendingRelay {
		sh.srv.putBuf(sh.pendingRelay[i].base)
	}
	clear(sh.pendingRelay)
	clear(sh.pendingOut)
	sh.pendingRelay, sh.pendingOut = sh.pendingRelay[:0], sh.pendingOut[:0]
}

// stageRelay sends a committed chain frame onward: to the successor,
// stamped with this replica's view (on every hop, so a replica whose view
// moved since it received the frame fences itself), or — at the tail,
// where the updates are now durable on every member — its acknowledgment
// part to the requester, untouched. The link is read now, not when the
// frame was held, so a control-plane relink applies at once.
func (sh *udpShard) stageRelay(pr *pendingRelay) {
	if next := sh.srv.next.Load(); next != nil {
		sh.staged(sh.relays, sh.tx.stage(next, func(b []byte) []byte {
			b = append(b, pr.frame...)
			binary.BigEndian.PutUint64(b[chainViewOff:], sh.srv.view.Load())
			return b
		}))
	} else if pr.origin != nil && len(pr.ack) > 0 {
		sh.staged(sh.replies, sh.tx.stage(pr.origin, func(b []byte) []byte { return append(b, pr.ack...) }))
	}
}

// staged counts a datagram handed to the egress batch, or logs why the
// batch it completed could not be sent.
func (sh *udpShard) staged(count *obs.Counter, err error) {
	if err != nil {
		if !sh.srv.closed.Load() {
			log.Printf("store: send: %v", err)
		}
	} else if count != nil {
		count.Inc()
	}
}

// appendAcks frames a commit's acknowledgments as the reply datagram a
// switch expects: one plain frame for a lone ack, one batch otherwise.
func appendAcks(b []byte, outs []Output) []byte {
	if len(outs) == 1 {
		return outs[0].Msg.Marshal(b)
	}
	bt := wire.Batch{Msgs: make([]*wire.Message, len(outs))}
	for i, o := range outs {
		bt.Msgs[i] = o.Msg
	}
	return bt.Marshal(b)
}

// flushLeases grants queued lease requests whose blocking leases
// expired. A grant is a mutation like any other: with a successor it
// travels the chain (one frame per grant, each has its own requester) and
// the tail acknowledges it; else it is acknowledged from here after sync.
func (sh *udpShard) flushLeases() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	outs, ups := sh.sh.Flush(time.Now().UnixNano())
	if len(ups) == 0 {
		return
	}
	for i := range outs { // Flush returns one output and one update per grant
		sh.hold(nil, sh.addrs[outs[i].DstSwitch], ups[i:i+1], outs[i:i+1])
	}
	sh.commit()
}

// txBatcher accumulates marshaled datagrams and sends them in one
// sendmmsg call (or a write loop on the portable path). Slot buffers
// are reused across flushes.
type txBatcher struct {
	bw    batchWriter
	slots []txSlot
	n     int

	txBatches *obs.Counter
	txDgrams  *obs.Counter
}

// stage marshals one datagram into the next slot via fn and flushes
// when the batch is full. fn appends to the given buffer and returns it.
func (t *txBatcher) stage(to *net.UDPAddr, fn func(b []byte) []byte) error {
	sl := &t.slots[t.n]
	sl.buf = fn(sl.buf[:0])
	sl.addr = to
	t.n++
	if t.n == len(t.slots) {
		return t.flush()
	}
	return nil
}

// flush sends the accumulated batch.
func (t *txBatcher) flush() error {
	if t.n == 0 {
		return nil
	}
	err := t.bw.WriteBatch(t.slots[:t.n])
	t.txBatches.Inc()
	t.txDgrams.Add(uint64(t.n))
	t.n = 0
	return err
}
