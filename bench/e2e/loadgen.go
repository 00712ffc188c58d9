package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// loadgen is the benchmark's own closed-loop client: one UDP socket, a
// sender goroutine (the caller of run) and a reader goroutine blocked in
// the socket read. At most window request datagrams are outstanding over
// all flows; each acknowledgment hands the sender one token, which sends
// the next datagram of the next flow in round-robin order. The program
// under test sees nothing of the seed but the packets built from it.
type loadgen struct {
	conn  *net.UDPConn
	dst   netip.AddrPort
	flows []genFlow
	byKey map[packet.FiveTuple]int32
	batch int
	salt  uint64 // written value = seq ^ salt
	base  time.Time

	// tokens carries one value per completed datagram from the reader to
	// the sender; at most window datagrams are outstanding, so window
	// slots mean the reader never blocks on it.
	tokens     chan struct{}
	readerDone chan struct{}

	// Reader-owned while a round runs; the sender reads them after it has
	// received the round's last token.
	lat []int64

	rejects atomic.Int64
	badAcks atomic.Int64

	// Sender-owned.
	cursor     int
	buf        []byte
	msgs       []*wire.Message
	sentDgrams int64
	retrans    int64
}

// genFlow is one flow's generator state. want, sentAt and acked cross
// from sender to reader and back, so they are atomics.
type genFlow struct {
	key    packet.FiveTuple
	next   uint64        // sender-owned: highest sequence sent
	want   atomic.Uint64 // ack sequence that completes the outstanding datagram; 0 = none
	sentAt atomic.Int64  // ns since base of the outstanding datagram's first send
	acked  atomic.Uint64 // highest acknowledged sequence
}

// leaseWant marks an outstanding lease request: its LeaseNewAck carries
// the flow's watermark, not a sequence to match.
const leaseWant = ^uint64(0)

const genSwitchID = 1

// flowKeys derives n distinct five-tuples from the seed.
func flowKeys(seed int64, n int) []packet.FiveTuple {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]packet.FiveTuple, 0, n)
	seen := make(map[packet.FiveTuple]bool, n)
	for len(keys) < n {
		k := packet.FiveTuple{
			Src:     packet.MakeAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			Dst:     packet.MakeAddr(10, 128, 0, 1),
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: wire.StorePort,
			Proto:   17,
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// saltFor derives the value salt from the seed.
func saltFor(seed int64) uint64 { return uint64(seed)*0x9E3779B97F4A7C15 + 1 }

func newLoadgen(head net.Addr, seed int64, batch int) (*loadgen, error) {
	ua, ok := head.(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("loadgen: head address %v is not UDP", head)
	}
	// The chain relays the requester's IPv4 address, so bind v4 loopback.
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("loadgen: bind: %w", err)
	}
	// Best effort, as the store's own sockets do: room for a full window.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	g := &loadgen{
		conn:       conn,
		dst:        netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(ua.Port)),
		flows:      make([]genFlow, flowCount),
		byKey:      make(map[packet.FiveTuple]int32, flowCount),
		batch:      batch,
		salt:       saltFor(seed),
		base:       time.Now(),
		tokens:     make(chan struct{}, window),
		readerDone: make(chan struct{}),
		msgs:       make([]*wire.Message, batch),
	}
	for i, k := range flowKeys(seed, flowCount) {
		g.flows[i].key = k
		g.byKey[k] = int32(i)
	}
	for i := range g.msgs {
		g.msgs[i] = &wire.Message{Type: wire.MsgRepl, SwitchID: genSwitchID, Vals: make([]uint64, 1)}
	}
	go g.readAcks()
	return g, nil
}

// close shuts the socket and waits for the reader to end. The flows'
// watermarks stay readable; closing twice is harmless.
func (g *loadgen) close() {
	g.conn.Close()
	<-g.readerDone
}

func (g *loadgen) now() int64 { return int64(time.Since(g.base)) }

// readAcks blocks in the socket read until the socket closes.
func (g *loadgen) readAcks() {
	defer close(g.readerDone)
	buf := make([]byte, 64<<10)
	var frames [][]byte
	var m wire.Message
	for {
		n, _, err := g.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		b := buf[:n]
		if !wire.IsBatch(b) {
			if m.Unmarshal(b) != nil {
				g.badAcks.Add(1)
				continue
			}
			g.applyAck(&m)
			continue
		}
		frames, err = wire.MemberFrames(b, frames[:0])
		if err != nil {
			g.badAcks.Add(1)
			continue
		}
		for _, f := range frames {
			if m.Unmarshal(f[2:]) != nil {
				g.badAcks.Add(1)
				continue
			}
			g.applyAck(&m)
		}
	}
}

// applyAck completes the flow's outstanding datagram when m is the
// acknowledgment it waits for; duplicates and the lower acks of a batch
// fall through.
func (g *loadgen) applyAck(m *wire.Message) {
	i, ok := g.byKey[m.Key]
	if !ok {
		g.badAcks.Add(1)
		return
	}
	f := &g.flows[i]
	w := f.want.Load()
	switch m.Type {
	case wire.MsgReplAck:
		if w == 0 || w == leaseWant || m.Seq < w {
			return
		}
		f.acked.Store(m.Seq)
	case wire.MsgLeaseNewAck:
		if w != leaseWant {
			return
		}
	case wire.MsgLeaseReject:
		g.rejects.Add(1)
		return
	default:
		g.badAcks.Add(1)
		return
	}
	if f.want.CompareAndSwap(w, 0) {
		g.lat = append(g.lat, g.now()-f.sentAt.Load())
		g.tokens <- struct{}{}
	}
}

// value is what sequence seq writes.
func (g *loadgen) value(seq uint64) uint64 { return seq ^ g.salt }

// marshal builds the datagram that want completes: a lease request, or
// the batch writes ending at sequence want.
func (g *loadgen) marshal(f *genFlow, want uint64) []byte {
	if want == leaseWant {
		m := wire.Message{Type: wire.MsgLeaseNew, Key: f.key, SwitchID: genSwitchID}
		return m.Marshal(g.buf[:0])
	}
	for i, m := range g.msgs {
		m.Key = f.key
		m.Seq = want - uint64(g.batch) + 1 + uint64(i)
		m.Vals[0] = g.value(m.Seq)
	}
	if g.batch == 1 {
		return g.msgs[0].Marshal(g.buf[:0])
	}
	bt := wire.Batch{Msgs: g.msgs}
	return bt.Marshal(g.buf[:0])
}

func (g *loadgen) send(b []byte) error {
	g.buf = b
	_, err := g.conn.WriteToUDPAddrPort(b, g.dst)
	g.sentDgrams++
	return err
}

// sendNext sends the next idle flow's next datagram.
func (g *loadgen) sendNext(lease bool) error {
	var f *genFlow
	for range g.flows {
		f = &g.flows[g.cursor]
		g.cursor = (g.cursor + 1) % len(g.flows)
		if f.want.Load() == 0 {
			break
		}
		f = nil
	}
	if f == nil {
		return fmt.Errorf("loadgen: no idle flow")
	}
	want := uint64(leaseWant)
	if !lease {
		f.next += uint64(g.batch)
		want = f.next
	}
	b := g.marshal(f, want)
	f.sentAt.Store(g.now())
	f.want.Store(want)
	return g.send(b)
}

// resendOutstanding retransmits every datagram still waiting for its
// acknowledgment, keeping its first send time: the commit latency of a
// retransmitted write includes the stall.
func (g *loadgen) resendOutstanding() error {
	for i := range g.flows {
		f := &g.flows[i]
		if w := f.want.Load(); w != 0 {
			g.retrans++
			if err := g.send(g.marshal(f, w)); err != nil {
				return err
			}
		}
	}
	return nil
}

// genRound is what one closed-loop round measured.
type genRound struct {
	dgrams, acked  int   // request datagrams sent for the first time, and completed
	startNs, endNs int64 // first send, last acknowledgment (since base)
	sendDoneNs     int64 // last first-time send: the send phase ends, the drain begins
	retrans        int64
}

// run pushes dgrams request datagrams (lease requests or writes) through
// the window and returns when every one is acknowledged or the round
// deadline passes.
func (g *loadgen) run(lease bool, dgrams int) (genRound, error) {
	g.lat = g.lat[:0]
	r := genRound{dgrams: dgrams, startNs: g.now()}
	retrans0 := g.retrans
	tick := time.NewTicker(stallTick)
	defer tick.Stop()
	sent, ackedAtTick := 0, 0
	for r.acked < dgrams {
		if sent < dgrams && sent-r.acked < window {
			if err := g.sendNext(lease); err != nil {
				return r, err
			}
			if sent++; sent == dgrams {
				r.sendDoneNs = g.now()
			}
			continue
		}
		select {
		case <-g.tokens:
			r.acked++
		case <-tick.C:
			if time.Duration(g.now()-r.startNs) > roundDeadline {
				r.endNs = g.now()
				r.retrans = g.retrans - retrans0
				return r, nil
			}
			if r.acked == ackedAtTick {
				if err := g.resendOutstanding(); err != nil {
					return r, err
				}
			}
			ackedAtTick = r.acked
		}
	}
	r.endNs = g.now()
	r.retrans = g.retrans - retrans0
	return r, nil
}

// latencyUs returns the median and 99th percentile send→ack time of the
// last round's datagrams; every write of a datagram shares its time.
// Call it outside the round's measured window. The round's last token
// orders the reader's appends before this read.
func (g *loadgen) latencyUs() (p50, p99 float64) {
	slices.Sort(g.lat)
	return interpolate(g.lat, 0.50) / 1e3, interpolate(g.lat, 0.99) / 1e3
}
