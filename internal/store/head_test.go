package store

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"slices"
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// TestShardProcessBatchNoAllocs: deciding a 16-write batch into reused
// scratch allocates nothing — its acknowledgments, its updates and their
// values, and the per-flow coalescing (every flow is written twice).
func TestShardProcessBatchNoAllocs(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Hour})
	msgs := make([]*wire.Message, 16)
	for i := range msgs {
		k := tkey(byte(i % 8))
		if i < 8 {
			s.Process(0, leaseNew(1, k))
		}
		msgs[i] = replMsg(1, k, 0, 0)
	}
	var (
		outs  []Output
		ups   []Update
		arena []uint64
		seq   uint64
	)
	step := func() {
		seq++
		for i, m := range msgs {
			m.Seq, m.Vals[0] = 2*seq+uint64(i/8), seq
		}
		arena = arena[:0]
		outs, ups = s.Decide(1, msgs, outs[:0], ups[:0], &arena)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a 16-write batch allocates %.1f times", allocs)
	}
	if len(outs) != 16 || len(ups) != 8 || ups[0].LastSeq != 2*seq+1 || ups[0].Vals[0] != seq {
		t.Errorf("%d acks, %d updates, first %+v", len(outs), len(ups), ups[0])
	}
}

// TestShardKeepsNoRequest: the real-UDP head decodes every request into a
// message it reuses, so a lease request queued behind another switch's
// lease must be the shard's own copy — appended (flow 1), or replacing its
// retransmitted copy (flow 3): Flush grants each request as it arrived,
// after the message it was decoded into holds another one.
func TestShardKeepsNoRequest(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	var m wire.Message
	decide := func(req *wire.Message) {
		if err := m.Unmarshal(req.Marshal(nil)); err != nil {
			t.Fatal(err)
		}
		s.Decide(1, []*wire.Message{&m}, nil, nil, nil)
	}
	request := func(k packet.FiveTuple) *wire.Message {
		req := leaseNew(2, k)
		req.Piggyback = packet.NewTCP(1, 2, 3, 4, packet.FlagACK, 7) // its payload length travels, its Seq does not
		return req
	}
	for _, k := range []packet.FiveTuple{tkey(1), tkey(3)} {
		decide(leaseNew(1, k))
		decide(request(k))
	}
	decide(request(tkey(3))) // a retransmission replaces the queued copy
	decide(replMsg(3, tkey(2), 9, 99, 98))
	if s.Stats.LeaseQueued != 2 || s.Stats.WaitDeduped != 1 {
		t.Fatalf("queued %d, deduped %d; want 2, 1", s.Stats.LeaseQueued, s.Stats.WaitDeduped)
	}
	outs, _ := s.Flush(2 * sec)
	if len(outs) != 2 {
		t.Fatalf("Flush granted %d requests, want 2", len(outs))
	}
	for i, k := range []packet.FiveTuple{tkey(1), tkey(3)} {
		if a := outs[i].Msg; a.Type != wire.MsgLeaseNewAck || a.SwitchID != 2 || a.Key != k ||
			a.Piggyback == nil || a.Piggyback.PayloadLen != 7 {
			t.Errorf("Flush granted %+v, want switch 2's lease of %v echoing its packet", a, k)
		}
	}
}

// TestUDPHeadNoAllocs: in steady state a shard allocates nothing from a
// switch's request datagram to the bytes it sends for it — a one-write
// request and a 16-write batch, on an unchained server (the
// acknowledgment goes to the switch) and on a chained head (the commit
// goes to the successor in a pack). Each run decodes the datagram into the
// shard's own messages, decides, holds and commits; the sink socket is
// both the switch and the successor.
func TestUDPHeadNoAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	origin := localAddrPort(sink)
	for _, next := range []string{"", origin.String()} {
		for _, n := range []int{1, 16} {
			srv, err := NewUDPServer("127.0.0.1:0", next, Config{LeasePeriod: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			sh := srv.shards[0]
			request := func(msgs []*wire.Message) {
				b := srv.getBuf()
				payload := msgs[0].Marshal((*b)[:0])
				if len(msgs) > 1 {
					payload = (&wire.Batch{Msgs: msgs}).Marshal((*b)[:0])
				}
				sh.handle(dgram{base: b, payload: payload, origin: origin})
				sh.commit()
			}
			writes := make([]*wire.Message, n)
			for i := range writes {
				k := udpKey()
				k.SrcPort = uint16(100 + i)
				request([]*wire.Message{leaseNew(1, k)})
				writes[i] = replMsg(1, k, 0, 0)
			}
			var seq uint64
			step := func() {
				seq++
				for _, m := range writes {
					m.Seq, m.Vals[0] = seq, seq
				}
				request(writes)
			}
			step()
			name := map[bool]string{false: "unchained", true: "chained head"}[next != ""]
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 && !raceEnabled {
				t.Errorf("%s, %d-write request: %.1f allocations per datagram", name, n, allocs)
			}
			if _, got, _ := srv.State(writes[n-1].Key); got != seq {
				t.Errorf("%s, %d-write request: flow at seq %d, want %d", name, n, got, seq)
			}
			if sent := shardCounter(srv, "replies") + shardCounter(srv, "relays"); sent < 100 {
				t.Errorf("%s, %d-write request: %d commits sent on", name, n, sent)
			}
		}
	}
}

// requestSeeds are FuzzRequestDatagram's in-tree corpus: well-formed
// requests — plain and batched, on one shard of a two-shard server and
// spanning both — and malformations of them.
func requestSeeds() [][]byte {
	k0 := udpKey()
	k1 := k0
	for k1.Hash()%2 == k0.Hash()%2 {
		k1.SrcPort++
	}
	write := func(k packet.FiveTuple, seq uint64) *wire.Message { return replMsg(1, k, seq, seq, 7) }
	one := write(k0, 1).Marshal(nil)
	same := (&wire.Batch{Msgs: []*wire.Message{leaseNew(1, k0), write(k0, 1), write(k0, 2)}}).Marshal(nil)
	span := (&wire.Batch{Msgs: []*wire.Message{leaseNew(1, k0), leaseNew(1, k1), write(k1, 1), write(k0, 1)}}).Marshal(nil)
	lastShort := append([]byte(nil), span...)
	lastShort[len(lastShort)-56+23] = 3 // the last member's value count (its 40-byte header, 2 values), past its bytes
	return [][]byte{
		one,
		leaseNewPB(2, k1, 9).Marshal(nil),
		(&wire.Message{Type: wire.MsgSnapshot, Key: k0, Slot: 5, Vals: []uint64{1, 2}}).Marshal(nil),
		(&wire.Message{Type: wire.MsgHello, Key: k0}).Marshal(nil),
		same,
		span,
		lastShort,
		one[:len(one)-1],
		span[:len(span)-3],
		append(append([]byte(nil), span...), 0),
		wire.AppendBatchHeader(nil, 0),
	}
}

// FuzzRequestDatagram drives arbitrary bytes through a two-shard server's
// receive path as one switch datagram: route, then each shard's decode and
// decision. It must never panic, and the datagram is applied all or none:
// the shards together decode exactly the messages a fresh decode of the
// whole datagram yields, each on the shard owning its key, or nothing when
// that decode fails. It touches no socket.
func FuzzRequestDatagram(f *testing.F) {
	for _, b := range requestSeeds() {
		f.Add(b)
	}
	cfg := Config{LeasePeriod: time.Second, SnapshotSlots: 2}
	srv, err := NewUDPServer("127.0.0.1:0", "", cfg, WithUDPShards(2))
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	w := &captureWriter{}
	for _, sh := range srv.shards {
		sh.tx.bw = w
	}
	origin := netip.MustParseAddrPort("127.0.0.1:9501")
	log.SetOutput(io.Discard) // a bad datagram is logged
	defer log.SetOutput(os.Stderr)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > udpBufSize || len(b) > 0 && b[0] == chainMagic {
			return // not a request datagram (FuzzChainFrame covers packs)
		}
		w.sent = w.sent[:0]
		var want [][]byte // the members a fresh decode yields
		if wire.IsBatch(b) {
			var bt wire.Batch
			if bt.Unmarshal(b) == nil {
				for _, m := range bt.Msgs {
					if _, ok := wire.PeekKey(m.Marshal(nil)); !ok {
						want = nil // not routable: a seq starting with the batch magic
						break
					}
					want = append(want, m.Marshal(nil))
				}
			}
		} else if m := new(wire.Message); m.Unmarshal(b) == nil {
			want = append(want, m.Marshal(nil))
		}
		sl := rxSlot{buf: srv.getBuf(), addr: origin}
		sl.n = copy(*sl.buf, b)
		srv.recvs[0].route(&sl)
		var got [][]byte
		for si, sh := range srv.shards {
			sh.sh, sh.addrs = NewShard(cfg), map[int]netip.AddrPort{}
			for d, ok := sh.rings[0].Pop(); ok; d, ok = sh.rings[0].Pop() {
				if msgs, err := sh.decode(d.payload); err == nil {
					for _, m := range msgs {
						if owner := srv.shardFor(m.Key); owner != si {
							t.Fatalf("shard %d decoded a member of shard %d", si, owner)
						}
						got = append(got, m.Marshal(nil))
					}
				}
				sh.handle(d)
			}
			sh.commit()
		}
		slices.SortFunc(want, bytes.Compare)
		slices.SortFunc(got, bytes.Compare)
		if !slices.EqualFunc(want, got, bytes.Equal) {
			t.Fatalf("shards decoded %d of the datagram's %d members:\n%x\nwant\n%x", len(got), len(want), got, want)
		}
	})
}
