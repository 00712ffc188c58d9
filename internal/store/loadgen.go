package store

import (
	"fmt"
	"math"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/wire"
)

// SweepConfig drives a loopback goodput sweep against a real-UDP store
// server (cmd/redplane-udpload and internal/e2e both run one).
// Each flow leases its key, then streams Writes replication requests
// through a bounded in-flight window; every request must be
// acknowledged (cumulatively) before the sweep counts it. The load
// generator uses the same batched-syscall layer as the server, so on a
// small machine the client does not become the bottleneck it is
// measuring.
type SweepConfig struct {
	// Addr is the store chain head, e.g. "127.0.0.1:9500".
	Addr string
	// Flows is the number of distinct five-tuples (default 32).
	Flows int
	// Writes is the replication requests per flow (default 100). With
	// Zipf set it is the per-flow average: the same Flows*Writes total
	// is redistributed by flow rank.
	Writes int
	// Batch is the messages packed per request datagram (default 16;
	// 1 = one datagram per write, the per-packet switch pattern).
	Batch int
	// Window is the per-flow unacked-write bound (default
	// 4*max(Batch, 32), four syscall batches).
	Window int
	// Stall is the retransmission timer (default 100ms): a flow with a
	// stuck window re-sends its top sequence — the store's cumulative
	// seq semantics re-ack everything below it.
	Stall time.Duration
	// Timeout bounds the whole sweep (default 60s).
	Timeout time.Duration
	// SwitchBase offsets the flows' switch IDs (default 1); a restart
	// verification re-leases with the same IDs.
	SwitchBase int
	// FlowBase offsets the flow numbering (key and switch ID), so
	// back-to-back sweeps against one server use fresh flows.
	FlowBase int
	// Zipf skews the per-flow write allocation: flow rank r gets a
	// share of the same Flows*Writes total proportional to 1/r^Zipf
	// (see SweepWriteTargets). 0 keeps the uniform Writes-per-flow
	// sweep. The skewed sweep models heavy-hitter flow popularity —
	// the load shape the flow-space rebalancer exists to fix.
	Zipf float64
	// ShardCount, when non-zero, is the server's shard count; the
	// result then attributes processed writes per shard (the client
	// knows the flow→shard map: it is the same five-tuple hash the
	// server's receivers use) and reports the goodput spread.
	ShardCount int
}

func (c *SweepConfig) fill() {
	if c.Flows <= 0 {
		c.Flows = 32
	}
	if c.Writes <= 0 {
		c.Writes = 100
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Window <= 0 {
		c.Window = 4 * c.syscallBatch()
	}
	if c.Stall <= 0 {
		c.Stall = 100 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.SwitchBase <= 0 {
		c.SwitchBase = 1
	}
}

// syscallBatch is the datagrams per client send/receive syscall batch:
// at least 32 whatever Batch is, so the client stays syscall-efficient
// even with single-message datagrams.
func (c *SweepConfig) syscallBatch() int { return max(c.Batch, 32) }

// SweepResult summarizes one sweep.
type SweepResult struct {
	Flows, Writes int
	// AckedWrites is the sum of acked-sequence watermarks: on a
	// complete sweep, Flows*Writes. The store's acks are cumulative
	// and tolerate gaps, so the watermark alone says nothing about how
	// many writes the server actually processed — GoodputPps does.
	AckedWrites uint64
	// ProcessedWrites counts Repl acknowledgment messages received:
	// each is one request message the server processed end to end.
	ProcessedWrites uint64
	// SentDgrams / RecvDgrams count request and ack datagrams.
	SentDgrams, RecvDgrams uint64
	// Retrans counts retransmitted request datagrams (loss + sheds).
	Retrans uint64
	Elapsed time.Duration
	// GoodputPps is processed (individually acknowledged) writes per
	// second.
	GoodputPps float64
	// Complete reports every flow reached its final watermark before
	// Timeout.
	Complete bool
	// PerShardProcessed attributes processed writes to server shards
	// (populated only when SweepConfig.ShardCount is set).
	PerShardProcessed []uint64 `json:",omitempty"`
	// ShardSpread is max/mean of PerShardProcessed: 1.0 is a perfectly
	// even sweep; a Zipf sweep reports how lopsided the per-shard
	// goodput was.
	ShardSpread float64 `json:",omitempty"`
}

// SweepWriteTargets returns each flow's write target. With s == 0 every
// flow gets writes. With s > 0 the same flows*writes total is split
// Zipf-style — flow rank r weighs 1/r^s — with a floor of one write per
// flow (so every flow stays verifiable after a restart) and the
// remainder rounded by largest fractional part. The allocation is
// deterministic: no sampling, so a sweep and its -verify pass agree on
// every flow's watermark by construction.
func SweepWriteTargets(flows, writes int, s float64) []uint64 {
	targets := make([]uint64, flows)
	if s <= 0 {
		for i := range targets {
			targets[i] = uint64(writes)
		}
		return targets
	}
	spare := flows*writes - flows // one write per flow is pre-allocated
	if spare < 0 {
		spare = 0
	}
	weights := make([]float64, flows)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		sum += weights[i]
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, flows)
	allocated := 0
	for i, w := range weights {
		exact := float64(spare) * w / sum
		fl := math.Floor(exact)
		targets[i] = 1 + uint64(fl)
		allocated += int(fl)
		rems[i] = rem{i, exact - fl}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; k < spare-allocated; k++ {
		targets[rems[k].i]++
	}
	return targets
}

// sweepFlow is one flow's send-side state. acked and processed are
// written by the sender's reader goroutine and polled by its writer.
type sweepFlow struct {
	key       packet.FiveTuple
	switchID  int
	target    uint64 // writes this flow must get acknowledged
	leased    atomic.Bool
	acked     atomic.Uint64
	processed atomic.Uint64
	sent      uint64 // writer-goroutine only
	lastSend  time.Time
}

// FlowKey returns the five-tuple the sweep assigns to flow i, so a
// restart verification (or a test) can look the flow up on the server.
func FlowKey(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src:     packet.Addr(0x0A000001 + i/0x10000),
		Dst:     packet.Addr(0x0A800001),
		SrcPort: uint16(1024 + i%0x10000),
		DstPort: uint16(wire.StorePort),
		Proto:   17,
	}
}

// RunSweep leases cfg.Flows flows and pushes cfg.Writes acknowledged
// replication requests through each.
func RunSweep(cfg SweepConfig) (SweepResult, error) {
	cfg.fill()
	ua, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return SweepResult{}, fmt.Errorf("loadgen: resolve %q: %w", cfg.Addr, err)
	}
	targets := SweepWriteTargets(cfg.Flows, cfg.Writes, cfg.Zipf)
	flows := make([]*sweepFlow, cfg.Flows)
	for i := range flows {
		flows[i] = &sweepFlow{key: FlowKey(cfg.FlowBase + i),
			switchID: cfg.SwitchBase + cfg.FlowBase + i, target: targets[i]}
	}
	deadline := time.Now().Add(cfg.Timeout)
	sn, err := newSweepSender(unmapped(ua), flows, cfg)
	if err != nil {
		return SweepResult{}, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sn.readAcks() }()
	go func() { defer wg.Done(); sn.drive(deadline) }()
	wg.Wait()
	res := SweepResult{
		Flows: cfg.Flows, Writes: cfg.Writes,
		Elapsed:         time.Since(start),
		Complete:        true,
		SentDgrams:      sn.tx.txDgrams.Value(),
		RecvDgrams:      sn.recvDgrams.Load(),
		ProcessedWrites: sn.processed.Load(),
		Retrans:         sn.retrans,
	}
	for _, f := range flows {
		res.AckedWrites += f.acked.Load()
		if f.acked.Load() < f.target {
			res.Complete = false
		}
	}
	res.GoodputPps = float64(res.ProcessedWrites) / res.Elapsed.Seconds()
	if cfg.ShardCount > 0 {
		per := make([]uint64, cfg.ShardCount)
		for _, f := range flows {
			per[int(f.key.Hash()%uint64(cfg.ShardCount))] += f.processed.Load()
		}
		res.PerShardProcessed = per
		var max, sum uint64
		for _, v := range per {
			sum += v
			if v > max {
				max = v
			}
		}
		if sum > 0 {
			res.ShardSpread = float64(max) * float64(cfg.ShardCount) / float64(sum)
		}
	}
	return res, nil
}

// sweepSender owns one socket: a writer goroutine windows requests out
// through batched sends while a reader goroutine drains acks.
type sweepSender struct {
	cfg   SweepConfig
	conn  *net.UDPConn
	dst   netip.AddrPort
	br    batchReader
	tx    *txBatcher // writer-goroutine only
	flows []*sweepFlow
	byKey map[packet.FiveTuple]*sweepFlow

	retrans    uint64 // writer-goroutine only
	recvDgrams atomic.Uint64
	processed  atomic.Uint64
}

// sockBufBytes is the socket buffer size the sweep asks for on both
// sides (best effort: unprivileged processes are capped by
// net.core.{r,w}mem_max).
const sockBufBytes = 4 << 20

func newSweepSender(dst netip.AddrPort, flows []*sweepFlow, cfg SweepConfig) (*sweepSender, error) {
	// Bind the socket in the destination's family: sendmmsg needs the
	// sockaddr family to match, and v4 loopback is the benchmark path.
	network := "udp"
	if dst.Addr().Is4() {
		network = "udp4"
	}
	conn, err := net.ListenUDP(network, nil)
	if err != nil {
		return nil, fmt.Errorf("loadgen: bind: %w", err)
	}
	conn.SetReadBuffer(sockBufBytes)
	conn.SetWriteBuffer(sockBufBytes)
	sn := &sweepSender{
		cfg: cfg, conn: conn, dst: dst, flows: flows,
		tx: &txBatcher{slots: make([]txSlot, cfg.syscallBatch()),
			txBatches: new(obs.Counter), txDgrams: new(obs.Counter)},
		byKey: make(map[packet.FiveTuple]*sweepFlow, len(flows)),
	}
	sn.br, sn.tx.bw, _ = newPlatformIO(conn)
	for _, f := range flows {
		sn.byKey[f.key] = f
	}
	return sn, nil
}

// readAcks drains acknowledgment datagrams until the socket closes,
// advancing per-flow watermarks. Acks are cumulative: Seq covers every
// earlier write of the flow; every one decodes into the same Message.
func (sn *sweepSender) readAcks() {
	slots := make([]rxSlot, sn.cfg.syscallBatch())
	for i := range slots {
		b := make([]byte, udpBufSize)
		slots[i].buf = &b
	}
	var frames [][]byte
	var m wire.Message
	for {
		n, err := sn.br.ReadBatch(slots)
		if err != nil {
			return // socket closed by drive()
		}
		sn.recvDgrams.Add(uint64(n))
		for i := 0; i < n; i++ {
			b := (*slots[i].buf)[:slots[i].n]
			if !wire.IsBatch(b) {
				if m.Unmarshal(b) == nil {
					sn.applyAck(&m)
				}
				continue
			}
			frames, err = wire.MemberFrames(b, frames[:0])
			for j := 0; err == nil && j < len(frames); j++ {
				if m.Unmarshal(frames[j][2:]) == nil { // past the length prefix
					sn.applyAck(&m)
				}
			}
		}
	}
}

func (sn *sweepSender) applyAck(m *wire.Message) {
	f, ok := sn.byKey[m.Key]
	if !ok {
		return
	}
	switch m.Type {
	case wire.MsgLeaseNewAck:
		f.leased.Store(true)
		// A re-lease ack also reports the flow's persisted watermark.
		for {
			cur := f.acked.Load()
			if m.Seq <= cur || f.acked.CompareAndSwap(cur, m.Seq) {
				break
			}
		}
	case wire.MsgReplAck:
		sn.processed.Add(1)
		f.processed.Add(1)
		for {
			cur := f.acked.Load()
			if m.Seq <= cur || f.acked.CompareAndSwap(cur, m.Seq) {
				break
			}
		}
	case wire.MsgLeaseReject:
		// The store no longer honors this sender's lease (it expired
		// during a stall — e.g. across a failover — and queueing is
		// off). Mark the flow unleased; drive()'s stall path re-leases
		// before retransmitting.
		f.leased.Store(false)
	}
}

// drive runs the lease phase then the windowed write phase, closing the
// socket on exit so readAcks unblocks.
func (sn *sweepSender) drive(deadline time.Time) {
	defer sn.conn.Close()
	if !sn.leaseAll(deadline) {
		return
	}
	for time.Now().Before(deadline) {
		progress := false
		done := true
		now := time.Now()
		for _, f := range sn.flows {
			acked := f.acked.Load()
			if acked >= f.target {
				continue
			}
			done = false
			if f.sent < acked {
				f.sent = acked // re-lease reported a higher watermark
			}
			// Retransmit a stalled window: the top sequence alone
			// converges the flow (cumulative acks, gaps allowed).
			if f.sent > acked && now.Sub(f.lastSend) > sn.cfg.Stall {
				if !f.leased.Load() {
					// The lease was rejected mid-sweep: re-acquire first.
					// The grant's ack doubles as a watermark report.
					sn.stage(func(b []byte) []byte {
						m := wire.Message{Type: wire.MsgLeaseNew, Key: f.key, SwitchID: f.switchID}
						return m.Marshal(b)
					})
				} else {
					sn.stageWrites(f, f.sent, f.sent)
				}
				f.lastSend = now
				sn.retrans++
				progress = true
				continue
			}
			for f.sent < f.target && f.sent-acked < uint64(sn.cfg.Window) {
				burst := uint64(sn.cfg.Batch)
				if left := f.target - f.sent; left < burst {
					burst = left
				}
				if room := uint64(sn.cfg.Window) - (f.sent - acked); room < burst {
					burst = room
				}
				sn.stageWrites(f, f.sent+1, f.sent+burst)
				f.sent += burst
				f.lastSend = now
				progress = true
			}
		}
		sn.flushTx()
		if done {
			return
		}
		if !progress {
			// Window full everywhere: let the reader run (single-core
			// friendliness matters more than spin latency here).
			runtime.Gosched()
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// leaseAll acquires every flow's lease, retransmitting until granted.
func (sn *sweepSender) leaseAll(deadline time.Time) bool {
	for time.Now().Before(deadline) {
		pending := 0
		for _, f := range sn.flows {
			if f.leased.Load() {
				continue
			}
			pending++
			sn.stage(func(b []byte) []byte {
				m := wire.Message{Type: wire.MsgLeaseNew, Key: f.key, SwitchID: f.switchID}
				return m.Marshal(b)
			})
		}
		sn.flushTx()
		if pending == 0 {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// stageWrites stages one batch datagram carrying flow f's sequences
// [from, to].
func (sn *sweepSender) stageWrites(f *sweepFlow, from, to uint64) {
	sn.stage(func(b []byte) []byte {
		if from == to {
			m := wire.Message{Type: wire.MsgRepl, Key: f.key, SwitchID: f.switchID,
				Seq: from, Vals: []uint64{from}}
			return m.Marshal(b)
		}
		msgs := make([]*wire.Message, 0, to-from+1)
		for seq := from; seq <= to; seq++ {
			msgs = append(msgs, &wire.Message{Type: wire.MsgRepl, Key: f.key,
				SwitchID: f.switchID, Seq: seq, Vals: []uint64{seq}})
		}
		bt := wire.Batch{Msgs: msgs}
		return bt.Marshal(b)
	})
}

// stage marshals one datagram for the store into the tx batch. Send
// errors are left to the stall timer, like any other loss.
func (sn *sweepSender) stage(fn func(b []byte) []byte) { _ = sn.tx.stage(sn.dst, fn) }

func (sn *sweepSender) flushTx() { _ = sn.tx.flush() }

// VerifySweep re-leases every flow of a finished sweep with its original
// switch ID and checks the store still holds the final watermark — the
// crash-recovery assertion of `redplane-udpload -verify`. It returns
// the number of flows whose state matched.
func VerifySweep(cfg SweepConfig) (int, error) {
	cfg.fill()
	targets := SweepWriteTargets(cfg.Flows, cfg.Writes, cfg.Zipf)
	ok := 0
	for i := 0; i < cfg.Flows; i++ {
		cl, err := DialUDP(cfg.Addr, cfg.SwitchBase+cfg.FlowBase+i)
		if err != nil {
			return ok, err
		}
		ack, err := cl.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: FlowKey(cfg.FlowBase + i)})
		cl.Close()
		if err != nil {
			return ok, fmt.Errorf("loadgen: verify flow %d: %w", i, err)
		}
		if ack.Seq == targets[i] && !ack.NewFlow &&
			len(ack.Vals) == 1 && ack.Vals[0] == targets[i] {
			ok++
		}
	}
	return ok, nil
}
