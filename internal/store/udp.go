package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"slices"
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
// successor is a view-stamped pack of chain entries — per commit, its
// updates plus the held acknowledgment and the requester's address —
// which each successor fences by view, applies verbatim, makes durable,
// and forwards, until the tail sends each acknowledgment straight back to
// its switch.
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
	next atomic.Pointer[netip.AddrPort] // chain successor (nil = tail / no chain)
	cfg  Config

	// Control-plane facts, settable at runtime by a redplane-ctl agent
	// and reported in MsgHello replies. chainPos is -1 until the control
	// plane announces a position; relaySeen latches once any chain datagram
	// arrives (a mid-chain tell even without a control plane). view stamps
	// every chain datagram sent and fences every one received.
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

// The sharded server's fixed sizes.
const (
	// maxDrainBurst bounds the datagrams a shard processes per group
	// commit, so acknowledgments are not starved under sustained ingress.
	maxDrainBurst = 256
	// rxBatch and txBatch are the datagrams per recvmmsg call and per
	// shard sendmmsg call.
	rxBatch = 32
	txBatch = 32
	// ringSize is each receiver→shard SPSC ring's capacity. A full ring
	// sheds — the switch retransmits, like any other UDP loss.
	ringSize = 1024
)

// UDPOptions sizes the sharded server. The zero value of each field
// selects its default.
type UDPOptions struct {
	// Shards is the number of shard-owner goroutines; flows hash to
	// shards by five-tuple. Default 1. cmd/redplane-store defaults its
	// -shards flag to the core count instead. The socket is drained by
	// min(Shards, 2) receiver goroutines.
	Shards int

	// forcePortable selects the single-datagram IO even where
	// recvmmsg/sendmmsg exist; the in-process IO equivalence test sets
	// it. Builds use the portablemmsg tag instead.
	forcePortable bool
}

// UDPOption configures NewUDPServer.
type UDPOption func(*UDPOptions)

// WithUDPShards sets the shard-owner goroutine count.
func WithUDPShards(n int) UDPOption { return func(o *UDPOptions) { o.Shards = n } }

// NewUDPServer binds the server to addr (e.g. "127.0.0.1:9500").
// nextAddr, when non-empty, is the chain successor. Goroutines start in
// Serve.
func NewUDPServer(addr, nextAddr string, cfg Config, opts ...UDPOption) (*UDPServer, error) {
	var opt UDPOptions
	for _, fn := range opts {
		fn(&opt)
	}
	if opt.Shards == 0 {
		opt.Shards = 1
	}
	if opt.Shards < 1 {
		return nil, fmt.Errorf("store: invalid shard count %d", opt.Shards)
	}
	receivers := min(opt.Shards, 2)
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
		conn: conn, cfg: cfg,
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
	if err := s.SetNextAddr(nextAddr); err != nil {
		conn.Close()
		return nil, err
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
			addrs: make(map[int]netip.AddrPort),
			wake:  make(chan struct{}, 1),
			rings: make([]*ring.SPSC[dgram], receivers),
			tx: &txBatcher{
				slots:     make([]txSlot, txBatch),
				txBatches: ns.Counter("tx_batches"),
				txDgrams:  ns.Counter("tx_dgrams"),
			},
			queueDepth:  ns.Gauge("queue_depth"),
			dgrams:      ns.Counter("dgrams"),
			sheds:       ns.Counter("sheds"),
			replies:     ns.Counter("replies"),
			replyDgrams: ns.Counter("reply_dgrams"),
			relays:      ns.Counter("relays"),
			relayDgrams: ns.Counter("relay_dgrams"),
			commits:     ns.Counter("commits"),
		}
		_, sh.tx.bw, s.ioName = newIO()
		for r := range sh.rings {
			sh.rings[r] = ring.New[dgram](ringSize)
		}
		s.shards[i] = sh
	}

	s.recvs = make([]*udpReceiver, receivers)
	for i := range s.recvs {
		rbr, _, _ := newIO()
		rx := &udpReceiver{
			srv: s, idx: i, br: rbr,
			slots:   make([]rxSlot, rxBatch),
			group:   make([][][]byte, opt.Shards),
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

// EnableDurabilityBackends attaches one durable backend per shard: each
// shard is replaced by one recovered from its backend's newest
// checkpoint plus the WAL tail, and every later mutation is logged and
// fsynced before its ack or chain relay escapes. The flow→shard hash is
// stable, so a shard's WAL only ever holds its own flows — provided the
// shard count does not change between restarts; cmd/redplane-store
// records the count next to the WAL and refuses a mismatch. Call before
// Serve. Returns total WAL records replayed.
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
	// Replies counts acknowledged commits, ReplyDgrams the datagrams used.
	Dgrams, Sheds, Replies, ReplyDgrams, Relays uint64
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
			ReplyDgrams: sh.replyDgrams.Value(), Commits: sh.commits.Value(),
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
// a switch's request (single-message or batch framing, undecoded) or a
// predecessor's chain pack.
type dgram struct {
	base    *[]byte        // pooled backing buffer to recycle
	payload []byte         // the datagram, a span of *base
	origin  netip.AddrPort // the datagram's source: the switch to acknowledge
	chain   bool           // payload is a chain pack from the predecessor, not a switch's request
}

// udpReceiver drains the socket and routes datagrams to shard rings.
type udpReceiver struct {
	srv    *UDPServer
	idx    int
	br     batchReader
	slots  []rxSlot
	group  [][][]byte   // per-shard member frames of a spanning batch
	frames [][]byte     // member-frame scratch (spans of the rx buffer)
	check  wire.Message // a spanning batch's member, decoded to be checked

	// touched marks the shards the current rx batch pushed work to.
	touched []bool
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

// route hands one received datagram to its owning shard, which decodes
// it. Single-message frames and chain packs are routed by a key peek, and
// batch frames by a key peek of every member, re-framed per shard when
// the members span several. A batch whose framing or any member's key is
// malformed goes to no shard. A chain pack is never split: its sender
// built it from one shard's commits, and every chain member runs the same
// shard count.
func (r *udpReceiver) route(sl *rxSlot) {
	s := r.srv
	payload := (*sl.buf)[:sl.n]
	if wire.IsBatch(payload) {
		frames, err := wire.MemberFrames(payload, r.frames[:0])
		r.frames = frames[:0]
		target, same := 0, true
		for i := 0; err == nil && i < len(frames); i++ {
			key, ok := wire.PeekKey(frames[i][2:]) // past the length prefix
			if si := s.shardFor(key); !ok {
				err = errors.New("member too short to route")
			} else if i == 0 {
				target = si
			} else if si != target {
				same = false
			}
		}
		// The shards of a spanning batch decode their parts apart: its
		// members are decoded once here, so it is still applied whole or
		// not at all.
		for i := 0; err == nil && !same && i < len(frames); i++ {
			err = r.check.Unmarshal(frames[i][2:])
		}
		if err != nil {
			s.badDgrams.Inc()
			log.Printf("store: bad batch from %v: %v", sl.addr, err)
			return
		}
		if len(frames) == 0 {
			return
		}
		if same {
			r.deliver(target, dgram{base: sl.buf, payload: payload, origin: sl.addr})
			sl.buf = s.getBuf() // ownership moved to the ring
			return
		}
		// Split: each shard's members become their own sub-batch,
		// assembled by copying the members' framed byte ranges out of
		// the original datagram — the messages are never re-marshaled.
		// The original slot buffer stays with the receiver.
		for _, f := range frames {
			key, _ := wire.PeekKey(f[2:])
			si := s.shardFor(key)
			r.group[si] = append(r.group[si], f)
		}
		for si, g := range r.group {
			if len(g) > 0 {
				nb := s.getBuf()
				r.deliver(si, dgram{base: nb, payload: wire.AppendBatchFrames((*nb)[:0], g...), origin: sl.addr})
				r.group[si] = g[:0]
			}
		}
		return
	}
	d := dgram{base: sl.buf, payload: payload, origin: sl.addr, chain: len(payload) > 0 && payload[0] == chainMagic}
	key, ok := wire.PeekKey(payload)
	if d.chain {
		if s.chainPos.Load() == 0 {
			// The control plane made this server a head: it has no
			// predecessor in any view, so nothing may send it a pack.
			s.misrouteDrops.Inc()
			return
		}
		if key, ok = packFirstKey(payload); ok {
			s.relaySeen.Store(true)
		}
	}
	if !ok {
		s.badDgrams.Inc()
		log.Printf("store: bad datagram from %v (%d bytes)", sl.addr, len(payload))
		return
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

// A chain datagram is a pack of entries, each one repl.ChainMsg on a real
// socket — what a replica sends its successor for one commit:
//
//	magic(1) view(8)
//	{ requester addr(16) port(2) count(2) acklen(2)
//	  { len(2) EncodeUpdate }*count   acknowledgment datagram (acklen bytes) }+
//
// view is the sender's when the pack left it: every hop re-stamps it and
// a receiver drops a pack whose view is not its own. An entry's requester
// is the switch socket the tail sends its acknowledgment part to (port 0
// = unknown, nothing to acknowledge). Updates use the WAL's record
// encoding; header integers are big-endian like the rest of the wire.
const (
	// chainMagic cannot start a request: those begin with the high byte
	// of a sequence number, or the batch magic.
	chainMagic    byte = 0xC4
	chainViewOff       = 1
	chainPackHdr       = chainViewOff + 8
	chainEntryHdr      = 16 + 2 + 2 + 2
	maxChainFrame      = 65507 // largest UDP payload: a longer pack cannot be sent
	// chainPackBytes is where a shard stops adding a commit group's entries
	// to a pack, or its acknowledgments for one requester to a datagram:
	// 1500 less the IPv6 and UDP headers, so neither relies on IP
	// fragmentation. What alone exceeds it travels alone.
	chainPackBytes = 1452
	// chainGrowth bounds how far one message's update and acknowledgment
	// exceed its request encoding, when its flow's state is no wider than
	// the values it carries (a snapshot slot update is the worst case).
	chainGrowth = 52
)

var errChainFrame = errors.New("store: truncated chain pack")

// appendChainEntry appends one commit's entry to b. With no known
// requester (the zero AddrPort) the updates still replicate; the entry
// then carries no acknowledgment.
func appendChainEntry(b []byte, requester netip.AddrPort, ups []Update, outs []Output) []byte {
	hdr := len(b)
	a16 := requester.Addr().As16()
	b = append(b, a16[:]...)
	b = binary.BigEndian.AppendUint16(b, requester.Port())
	b = binary.BigEndian.AppendUint16(b, uint16(len(ups)))
	b = append(b, 0, 0)
	for _, up := range ups {
		at := len(b)
		b = EncodeUpdate(append(b, 0, 0), up)
		binary.BigEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	at := len(b)
	if requester.IsValid() && len(outs) > 0 {
		b = appendAcks(b, outs)
	}
	// An entry too long for these 16 bits is too long for a datagram: hold
	// refuses it by its length, whatever was written here.
	binary.BigEndian.PutUint16(b[hdr+chainEntryHdr-2:], uint16(len(b)-at))
	return b
}

// packFirstKey peeks the key of a pack's first update, which routes the
// pack to its shard. False for a pack too short to hold one update.
func packFirstKey(b []byte) (packet.FiveTuple, bool) {
	const keyOff = chainPackHdr + chainEntryHdr + 2 + 1 // length prefix, flags byte
	if len(b) < keyOff {
		return packet.FiveTuple{}, false
	}
	k, _, err := getKey(b[keyOff:])
	return k, err == nil
}

// chainEntry is one entry of a pack, its parts aliasing the pack.
type chainEntry struct {
	requester netip.AddrPort
	ups       []byte // the length-prefixed updates, at least one
	ack       []byte
}

// nextChainEntry splits the entry at the head of b (a pack past its
// header, or past earlier entries) from what follows it. It is the one
// place entry bounds are computed: the decoder and the tail both walk a
// pack with it.
func nextChainEntry(b []byte) (e chainEntry, rest []byte, err error) {
	if len(b) < chainEntryHdr {
		return e, nil, errChainFrame
	}
	e.requester = netip.AddrPortFrom(netip.AddrFrom16([16]byte(b[:16])).Unmap(), binary.BigEndian.Uint16(b[16:]))
	n, acklen := int(binary.BigEndian.Uint16(b[18:])), int(binary.BigEndian.Uint16(b[20:]))
	if n == 0 {
		return e, nil, errors.New("store: chain entry without updates")
	}
	b = b[chainEntryHdr:]
	at := 0
	for ; n > 0; n-- {
		if len(b)-at < 2 || len(b)-at-2 < int(binary.BigEndian.Uint16(b[at:])) {
			return e, nil, errChainFrame
		}
		at += 2 + int(binary.BigEndian.Uint16(b[at:]))
	}
	if len(b)-at < acklen {
		return e, nil, errChainFrame
	}
	e.ups, e.ack = b[:at], b[at:at+acklen]
	return e, b[at+acklen:], nil
}

// decodeChainPack decodes every update of every entry of a pack into ups
// (reusing its backing array; their values go to *arena when it is not
// nil) and returns them with the entry count. Any malformation fails the
// whole pack: a receiver applies all of a datagram or none of it.
func decodeChainPack(b []byte, ups []Update, arena *[]uint64) ([]Update, int, error) {
	if len(b) < chainPackHdr || b[0] != chainMagic {
		return ups, 0, errChainFrame
	}
	entries := 0
	for b = b[chainPackHdr:]; len(b) > 0 || entries == 0; entries++ {
		e, rest, err := nextChainEntry(b)
		if err != nil {
			return ups, 0, err
		}
		for u := e.ups; len(u) > 0; {
			l := 2 + int(binary.BigEndian.Uint16(u))
			up, err := decodeUpdate(u[2:l], arena)
			if err != nil {
				return ups, 0, err
			}
			ups, u = append(ups, up), u[l:]
		}
		b = rest
	}
	return ups, entries, nil
}

// pendingReply is an acknowledgment datagram, marshaled into the shard's
// acked, held until the covering group commit.
type pendingReply struct {
	ack []byte
	to  netip.AddrPort
}

// pendingRelay is a chain pack — built here from this group's commits, or
// received and applied — held until the covering group commit.
type pendingRelay struct {
	base    *[]byte
	pack    []byte // a span of *base; its view is stamped when it is staged
	entries int
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
	addrs map[int]netip.AddrPort

	rings []*ring.SPSC[dgram]
	wake  chan struct{}
	tx    *txBatcher

	pendingOut   []pendingReply
	pendingRelay []pendingRelay  // sealed packs
	open         pendingRelay    // the pack this group's commits are joining (base nil: none)
	entry        []byte          // hold's entry scratch
	reqs         []*wire.Message // the shard's own messages a request datagram decodes into
	outs         []Output        // handle's decision scratch, reused per datagram
	ups          []Update        // and handle's or applyChain's updates,
	vals         []uint64        // and the arena their values live in
	runs         []ackRun        // commit's acknowledgment datagrams, one open per requester
	acked        []byte          // the group's replies, marshaled (a span stays valid if append moves it)
	split        [][]byte        // decode's and queueAck's member-frame scratch

	queueDepth  *obs.Gauge
	dgrams      *obs.Counter
	sheds       *obs.Counter
	replies     *obs.Counter // commits acknowledged
	replyDgrams *obs.Counter // datagrams their acknowledgments travelled in
	relays      *obs.Counter // entries sent to the successor
	relayDgrams *obs.Counter // packs they travelled in
	commits     *obs.Counter
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
// process until the rings are empty or maxDrainBurst is reached, fsync
// once for the group's mutations, then release its relays and
// acknowledgments in one egress batch. Nothing waits for more work — the
// next group is whatever the receivers queued while this one was
// applied, synced and sent, so groups grow with device latency on their
// own and an idle shard adds none.
func (sh *udpShard) drain() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		processed := 0
		for _, r := range sh.rings {
			for processed < maxDrainBurst {
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
// successor joins the group's chain pack, anything else is answered from
// here.
func (sh *udpShard) handle(d dgram) {
	if d.chain {
		sh.applyChain(d)
		return
	}
	// Nothing Unmarshal returns aliases the rx buffer, and a commit is
	// encoded into the shard's own pack or acked: the buffer goes back at
	// once.
	defer sh.srv.putBuf(d.base)
	msgs, err := sh.decode(d.payload)
	if err != nil {
		sh.srv.badDgrams.Inc()
		log.Printf("store: bad datagram from %v: %v", d.origin, err)
		return
	}
	if !wire.IsBatch(d.payload) && msgs[0].Type == wire.MsgHello {
		// Deployment handshake: answer immediately with topology
		// facts; never touches flow state or the WAL.
		sh.dgrams.Inc()
		sh.outs = append(sh.outs[:0], Output{Msg: sh.srv.helloAck(msgs[0])})
		sh.hold(d.origin, nil, sh.outs)
		return
	}
	if sh.srv.misrouted(msgs...) {
		return
	}
	if sh.srv.next.Load() != nil && chainPackHdr+chainEntryHdr+len(d.payload)+chainGrowth*len(msgs) > maxChainFrame {
		// The commit's entry might not fit a datagram: refuse the request
		// while nothing has changed, rather than decide what cannot travel.
		sh.srv.badDgrams.Inc()
		log.Printf("store: %d-byte request of %d messages from %v is too large to relay", len(d.payload), len(msgs), d.origin)
		return
	}
	for _, m := range msgs {
		sh.addrs[m.SwitchID] = d.origin
	}
	sh.vals = sh.vals[:0]
	sh.outs, sh.ups = sh.sh.Decide(time.Now().UnixNano(), msgs, sh.outs[:0], sh.ups[:0], &sh.vals)
	sh.dgrams.Inc()
	sh.hold(d.origin, sh.ups, sh.outs)
}

// decode decodes a request datagram, plain or batch, into the shard's own
// messages: all of them before any is decided, so a datagram is decided
// whole or not at all.
func (sh *udpShard) decode(b []byte) ([]*wire.Message, error) {
	frames, off := append(sh.split[:0], b), 0
	if wire.IsBatch(b) {
		var err error
		if frames, err = wire.MemberFrames(b, frames[:0]); err != nil {
			return nil, err
		}
		off = 2 // past each member's length prefix
	}
	sh.split = frames
	for len(sh.reqs) < len(frames) {
		sh.reqs = append(sh.reqs, new(wire.Message))
	}
	for i, f := range frames {
		if err := sh.reqs[i].Unmarshal(f[off:]); err != nil {
			return nil, err
		}
	}
	return sh.reqs[:len(frames)], nil
}

// hold stages one commit of this replica for the group commit: with a
// successor and something to replicate, as an entry of the open chain
// pack — sealed first if the entry would take it past chainPackBytes —
// otherwise as a reply from here. Either way it is marshaled now: nothing
// held refers to ups or outs.
func (sh *udpShard) hold(origin netip.AddrPort, ups []Update, outs []Output) {
	if len(ups) == 0 || sh.srv.next.Load() == nil {
		if len(outs) > 0 && origin.IsValid() {
			at := len(sh.acked)
			sh.acked = appendAcks(sh.acked, outs)
			sh.pendingOut = append(sh.pendingOut, pendingReply{ack: sh.acked[at:], to: origin})
		}
		return
	}
	sh.entry = appendChainEntry(sh.entry[:0], origin, ups, outs)
	if chainPackHdr+len(sh.entry) > maxChainFrame {
		// Past handle's estimate only when stored state is far wider than
		// the requests touching it: it cannot travel, so it is not acked.
		sh.srv.badDgrams.Inc()
		log.Printf("store: commit of %d updates for %v exceeds a datagram, dropped", len(ups), origin)
		return
	}
	if sh.open.entries > 0 && len(sh.open.pack)+len(sh.entry) > chainPackBytes {
		sh.seal()
	}
	if sh.open.base == nil {
		sh.open.base = sh.srv.getBuf()
		sh.open.pack = append((*sh.open.base)[:0], chainMagic, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	sh.open.pack = append(sh.open.pack, sh.entry...) // ≤ maxChainFrame < udpBufSize: stays in *base
	sh.open.entries++
}

// seal closes the open pack: it is held like a received one, and like
// one is not staged before commit's sync.
func (sh *udpShard) seal() {
	sh.pendingRelay = append(sh.pendingRelay, sh.open)
	sh.open = pendingRelay{}
}

// applyChain installs a predecessor's pack: fence the view as
// Server.handleRepl does, decode every update of every entry before
// applying any, copy them into the shard verbatim (through the WAL hook)
// unless the flow is already past them, and hold the pack for this
// replica's group commit.
func (sh *udpShard) applyChain(d dgram) {
	srv := sh.srv
	if binary.BigEndian.Uint64(d.payload[chainViewOff:]) != srv.view.Load() {
		srv.staleViewDrops.Inc()
		srv.putBuf(d.base)
		return
	}
	sh.vals = sh.vals[:0]
	ups, entries, err := decodeChainPack(d.payload, sh.ups[:0], &sh.vals)
	sh.ups = ups
	for i := 0; err == nil && i < len(ups); i++ {
		if si := srv.shardFor(ups[i].Key); si != sh.idx {
			err = fmt.Errorf("update for %v belongs to shard %d, not %d: chain members must run equal -shards",
				ups[i].Key, si, sh.idx)
		}
	}
	if err != nil {
		srv.badDgrams.Inc()
		log.Printf("store: bad chain pack: %v", err)
		srv.putBuf(d.base)
		return
	}
	for _, up := range ups {
		// Packs overtake each other — between hosts, and between this
		// server's receivers. An update overtaken by a later write of its
		// flow changes nothing here, but still travels on with its ack.
		if !sh.sh.Stale(up) {
			sh.sh.Apply(up)
		}
	}
	sh.dgrams.Inc()
	sh.pendingRelay = append(sh.pendingRelay, pendingRelay{base: d.base, pack: d.payload, entries: entries})
}

// commit seals the open pack, makes the staged mutations durable (one
// fsync for the whole burst), and only then releases every held pack and
// acknowledgment through the shard's egress batch, the acknowledgments
// coalesced per requester. On a failed sync nothing escapes — the staged
// WAL records remain for the next attempt and the switches retransmit.
func (sh *udpShard) commit() {
	if sh.open.entries > 0 {
		sh.seal()
	}
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
		sh.stagePack(&sh.pendingRelay[i])
	}
	for _, po := range sh.pendingOut {
		sh.queueAck(po.to, po.ack)
	}
	for i := range sh.runs {
		sh.stageRun(&sh.runs[i])
	}
	sh.runs = sh.runs[:0]
	sh.dropPending() // staging copied the bytes; recycle the holds
	sh.sent(sh.tx.flush())
}

// dropPending recycles and forgets everything held for a commit: after a
// failed sync, so that nothing escapes, or once it has all been staged.
func (sh *udpShard) dropPending() {
	for i := range sh.pendingRelay {
		sh.srv.putBuf(sh.pendingRelay[i].base)
	}
	clear(sh.pendingRelay)
	clear(sh.pendingOut)
	sh.pendingRelay, sh.pendingOut, sh.acked = sh.pendingRelay[:0], sh.pendingOut[:0], sh.acked[:0]
}

// stagePack sends a committed pack onward: to the successor, stamped with
// this replica's view (on every hop, so a replica whose view moved since
// it received the pack fences itself), or — at the tail, where the updates
// are now durable on every member — queues each entry's acknowledgment
// part for its requester. The link is read now, not when the pack was
// held, so a control-plane relink applies at once.
func (sh *udpShard) stagePack(pr *pendingRelay) {
	if next := sh.srv.next.Load(); next != nil {
		if sh.sent(sh.tx.stage(*next, func(b []byte) []byte {
			b = append(b, pr.pack...)
			binary.BigEndian.PutUint64(b[chainViewOff:], sh.srv.view.Load())
			return b
		})) {
			sh.relays.Add(uint64(pr.entries))
			sh.relayDgrams.Inc()
		}
		return
	}
	for b := pr.pack[chainPackHdr:]; len(b) > 0; {
		e, rest, err := nextChainEntry(b)
		if err != nil {
			return // unreachable: a held pack was built here or decoded whole
		}
		b = rest
		if e.requester.Port() != 0 && len(e.ack) > 0 {
			sh.queueAck(e.requester, e.ack)
		}
	}
}

// ackRun is a requester's acknowledgment datagram: spans of held packs and of sh.acked.
type ackRun struct {
	to    netip.AddrPort
	first []byte   // the first commit's acknowledgment datagram
	msgs  [][]byte // every commit's acknowledgment messages
	size  int      // the datagram's bytes, msgs framed under one batch header
	acks  int      // commits acknowledged
}

// queueAck adds one commit's acknowledgment datagram to its requester's
// run (scanned for: a commit answers few switches), sending the run first
// if the datagram's messages would take it past chainPackBytes. A run of
// one leaves as that datagram, so one past the budget travels unchanged.
func (sh *udpShard) queueAck(to netip.AddrPort, ack []byte) {
	i := slices.IndexFunc(sh.runs, func(r ackRun) bool { return r.to == to })
	if i < 0 { // a reopened slot keeps its msgs' backing array
		i = len(sh.runs)
		sh.runs = slices.Grow(sh.runs, 1)[:i+1]
		sh.runs[i].to = to
	}
	r := &sh.runs[i]
	msgs, err := wire.MemberFrames(ack, sh.split[:0])
	add := len(ack) - wire.BatchHeaderLen
	for j := range msgs {
		msgs[j] = msgs[j][2:] // past the member's length prefix
	}
	if err != nil { // not a well-formed batch: one message
		msgs, add = append(msgs[:0], ack), 2+len(ack)
	}
	if sh.split = msgs; r.acks > 0 && r.size+add > chainPackBytes {
		sh.stageRun(r)
	}
	if r.acks == 0 {
		r.first, r.size = ack, wire.BatchHeaderLen
	}
	r.msgs = append(r.msgs, msgs...)
	r.size += add
	r.acks++
}

// stageRun sends a run as one datagram and empties it.
func (sh *udpShard) stageRun(r *ackRun) {
	if sh.sent(sh.tx.stage(r.to, func(b []byte) []byte {
		if r.acks == 1 {
			return append(b, r.first...)
		}
		b = wire.AppendBatchHeader(b, len(r.msgs))
		for _, m := range r.msgs {
			b = append(binary.BigEndian.AppendUint16(b, uint16(len(m))), m...)
		}
		return b
	})) {
		sh.replies.Add(uint64(r.acks))
		sh.replyDgrams.Inc()
	}
	r.msgs, r.acks = r.msgs[:0], 0
}

// sent reports whether staging a datagram (or flushing the batch) handed
// the egress batch to the kernel when it had to, logging why not.
func (sh *udpShard) sent(err error) bool {
	if err != nil && !sh.srv.closed.Load() {
		log.Printf("store: send: %v", err)
	}
	return err == nil
}

// appendAcks frames a commit's acknowledgments as the reply datagram a
// switch expects: one plain frame for a lone ack, else the bytes
// wire.Batch.Marshal writes, each message marshaled straight into b.
func appendAcks(b []byte, outs []Output) []byte {
	if len(outs) == 1 {
		return outs[0].Msg.Marshal(b)
	}
	b = wire.AppendBatchHeader(b, len(outs))
	for i := range outs {
		at := len(b)
		b = outs[i].Msg.Marshal(append(b, 0, 0))
		binary.BigEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	return b
}

// flushLeases grants queued lease requests whose blocking leases
// expired. A grant is a mutation like any other: with a successor it
// travels the chain (one entry per grant, each has its own requester) and
// the tail acknowledges it; else it is acknowledged from here after sync.
func (sh *udpShard) flushLeases() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	outs, ups := sh.sh.Flush(time.Now().UnixNano())
	if len(ups) == 0 {
		return
	}
	for i := range outs { // Flush returns one output and one update per grant
		sh.hold(sh.addrs[outs[i].DstSwitch], ups[i:i+1], outs[i:i+1])
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
func (t *txBatcher) stage(to netip.AddrPort, fn func(b []byte) []byte) error {
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
