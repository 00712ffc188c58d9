package store

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// udpOwner reads a flow's lease holder on srv, fenced like State.
func udpOwner(srv *UDPServer, key packet.FiveTuple) int {
	sh := srv.shards[srv.shardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sh.Owner(key, time.Now().UnixNano())
}

// waitReplicas polls until every server holds key at seq, then returns.
func waitReplicas(t *testing.T, servers []*UDPServer, key packet.FiveTuple, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i, srv := range servers {
		for {
			if _, got, ok := srv.State(key); ok && got == seq {
				break
			}
			if time.Now().After(deadline) {
				_, got, ok := srv.State(key)
				t.Fatalf("replica %d at seq %d (ok=%v), want %d", i, got, ok, seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func staleViewDrops(srv *UDPServer) uint64 {
	return srv.Obs().NS("udp").Counter("stale_view_drops").Value()
}

// TestUDPLeaseMigrationThroughChain is the paper's Fig. 14 scenario on
// real sockets: a flow moves to another switch. Switch 2's lease request
// queues behind switch 1's lease and is granted by flushLeases; that
// grant must travel the chain like any other mutation, so switch 2's
// first write is acknowledged — not rejected by a successor that never
// heard of the grant — and every replica agrees on owner and state.
func TestUDPLeaseMigrationThroughChain(t *testing.T) {
	servers := startUDPChain(t, 3, Config{LeasePeriod: 300 * time.Millisecond})
	head := servers[0].Addr().String()
	c1, _ := DialUDP(head, 1)
	defer c1.Close()
	c2, _ := DialUDP(head, 2)
	defer c2.Close()
	key := udpKey()

	if _, err := c1.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Request(&wire.Message{Type: wire.MsgRepl, Key: key, Seq: 1, Vals: []uint64{11}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ack, err := c2.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgLeaseNewAck || ack.Seq != 1 || len(ack.Vals) != 1 || ack.Vals[0] != 11 {
		t.Fatalf("switch 2 lease ack = %+v, want the flow's state at seq 1", ack)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("granted after %v, before switch 1's lease could expire", elapsed)
	}
	ack, err = c2.Request(&wire.Message{Type: wire.MsgRepl, Key: key, Seq: 2, Vals: []uint64{22}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgReplAck || ack.Seq != 2 {
		t.Fatalf("switch 2's first write answered %v seq %d, want ReplAck 2", ack.Type, ack.Seq)
	}
	waitReplicas(t, servers, key, 2)
	for i, srv := range servers {
		if vals, _, _ := srv.State(key); len(vals) != 1 || vals[0] != 22 {
			t.Errorf("replica %d state = %v, want [22]", i, vals)
		}
		if o := udpOwner(srv, key); o != 2 {
			t.Errorf("replica %d owner = %d, want 2", i, o)
		}
		if d, want := srv.Digest(), servers[0].Digest(); d != want {
			t.Errorf("replica %d digest %#x != head's %#x", i, d, want)
		}
	}
	// One clock: only the head decided anything.
	for i, srv := range servers[1:] {
		sh := srv.shards[0]
		sh.mu.Lock()
		st := sh.sh.Stats
		sh.mu.Unlock()
		if st.LeaseGrants+st.ReplApplied+st.LeaseQueued != 0 {
			t.Errorf("replica %d re-executed requests: %+v", i+1, st)
		}
	}
}

// TestUDPStaleViewChainFrameFenced: a replica whose view differs from
// its predecessor's drops the predecessor's frames — counted, nothing
// applied at or below it, nothing acknowledged — and once the views
// agree the client's retransmission commits everywhere.
func TestUDPStaleViewChainFrameFenced(t *testing.T) {
	servers := startUDPChain(t, 3, Config{LeasePeriod: time.Minute})
	c, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c.Close()
	key := udpKey()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: key, Seq: 1, Vals: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, servers, key, 1)

	servers[1].SetViewNum(7) // the middle alone moved on
	c.Timeout = 100 * time.Millisecond
	type result struct {
		ack *wire.Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		ack, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: key, Seq: 2, Vals: []uint64{2}})
		done <- result{ack, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); staleViewDrops(servers[1]) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the middle never fenced the head's view-0 frame")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-done:
		t.Fatalf("write acknowledged through a fenced chain: %+v %v", r.ack, r.err)
	default:
	}
	if _, seq, _ := servers[0].State(key); seq != 2 {
		t.Errorf("head at seq %d, want 2 (it decided the write)", seq)
	}
	for i, srv := range servers[1:] {
		if _, seq, _ := srv.State(key); seq != 1 {
			t.Errorf("replica %d at seq %d behind the fence, want 1", i+1, seq)
		}
	}

	servers[0].SetViewNum(7)
	servers[2].SetViewNum(7)
	r := <-done
	if r.err != nil || r.ack.Type != wire.MsgReplAck || r.ack.Seq != 2 {
		t.Fatalf("retransmission after the views agreed: %+v %v", r.ack, r.err)
	}
	waitReplicas(t, servers, key, 2)
	for i, srv := range servers {
		if d, want := srv.Digest(), servers[0].Digest(); d != want {
			t.Errorf("replica %d digest %#x != head's %#x", i, d, want)
		}
	}
	if n := staleViewDrops(servers[2]); n != 0 {
		t.Errorf("tail fenced %d frames; the middle forwards none it dropped and re-stamps the rest", n)
	}
}

// TestUDPChainFrameOvertaken: chain frames arrive out of order — UDP
// reorders, and so do a multi-shard server's two receivers. A frame
// overtaken by a later write of its flow (or by the same write under a
// later lease) must not pull the replica back; it is still acknowledged,
// because the state it reports is covered by what the replica holds.
func TestUDPChainFrameOvertaken(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: time.Minute}, WithUDPShards(2))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := udpKey()
	lease := time.Now().Add(time.Minute).UnixNano()
	newest := Update{Key: key, Vals: []uint64{60}, LastSeq: 6, Owner: 1, LeaseExpiry: lease, Exists: true}
	buf := make([]byte, 2048)
	for _, up := range []Update{
		newest,
		{Key: key, Vals: []uint64{50}, LastSeq: 5, Owner: 1, LeaseExpiry: lease - 1, Exists: true}, // overtaken write
		{Key: key, Vals: []uint64{60}, LastSeq: 6, Owner: 9, LeaseExpiry: lease - 1, Exists: true}, // overtaken grant
	} {
		ack := []Output{{DstSwitch: 1, Msg: &wire.Message{Type: wire.MsgReplAck, Seq: up.LastSeq, Key: key, SwitchID: 1}}}
		frame, _ := appendChainFrame(nil, conn.LocalAddr().(*net.UDPAddr), []Update{up}, ack)
		if _, err := conn.WriteToUDP(frame, srv.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := conn.ReadFromUDP(buf)
		var got wire.Message
		if err != nil || got.Unmarshal(buf[:n]) != nil || got.Seq != up.LastSeq {
			t.Fatalf("frame for seq %d: ack %+v (%v)", up.LastSeq, got, err)
		}
		if vals, seq, _ := srv.State(key); seq != 6 || !reflect.DeepEqual(vals, []uint64{60}) {
			t.Fatalf("after the frame for seq %d (owner %d): state %v seq %d, want [60] seq 6", up.LastSeq, up.Owner, vals, seq)
		}
		if o := udpOwner(srv, key); o != 1 {
			t.Fatalf("after the frame for seq %d (owner %d): owner %d, want 1", up.LastSeq, up.Owner, o)
		}
	}
	if d, want := srv.Digest(), DigestUpdates([]Update{newest}); d != want {
		t.Errorf("digest %#x, want that of seq 6 alone (%#x)", d, want)
	}
}

// TestUDPChainPipelinedMultiShard drives a 3-replica chain of two-shard
// servers (two receivers each, so a shard drains two rings) with a window
// of writes in flight per flow: whatever order the frames reach a
// successor in, every replica ends on every flow's last write.
func TestUDPChainPipelinedMultiShard(t *testing.T) {
	servers := startUDPChain(t, 3, Config{LeasePeriod: time.Minute}, WithUDPShards(2))
	const flows, writes = 8, 400
	res, err := RunSweep(SweepConfig{Addr: servers[0].Addr().String(), Flows: flows, Writes: writes,
		Batch: 1, Window: 32, Timeout: 30 * time.Second})
	if err != nil || !res.Complete {
		t.Fatalf("sweep: %+v (%v)", res, err)
	}
	for i := 0; i < flows; i++ {
		waitReplicas(t, servers, FlowKey(i), writes)
	}
	for i, srv := range servers {
		if d, want := srv.Digest(), servers[0].Digest(); d != want {
			t.Errorf("replica %d digest %#x != head's %#x", i, d, want)
		}
	}
}

// TestUDPOversizeRequestRefused: a chained head refuses, before deciding
// anything, a request whose chain frame might not fit a datagram — it is
// counted, nothing changes on any replica, nothing is acknowledged — and
// a large batch inside the bound commits everywhere.
func TestUDPOversizeRequestRefused(t *testing.T) {
	servers := startUDPChain(t, 2, Config{LeasePeriod: time.Minute})
	c, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c.Close()
	key := udpKey()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key}); err != nil {
		t.Fatal(err)
	}
	batch := func(n int) []*wire.Message {
		msgs := make([]*wire.Message, n)
		for i := range msgs {
			msgs[i] = &wire.Message{Type: wire.MsgRepl, Key: key, Seq: uint64(i + 1), Vals: []uint64{uint64(i + 1)}}
		}
		return msgs
	}
	before := servers[0].Stats().BadDgrams
	c.Timeout, c.Retries = 50*time.Millisecond, 1
	if acks, err := c.RequestBatch(batch(900)); err == nil {
		t.Fatalf("900-message request acknowledged (%d acks); its frame estimate exceeds a datagram", len(acks))
	}
	for deadline := time.Now().Add(5 * time.Second); servers[0].Stats().BadDgrams != before+2; {
		if time.Now().After(deadline) {
			t.Fatalf("bad_dgrams moved by %d, want 2 (the request and its retransmission)",
				servers[0].Stats().BadDgrams-before)
		}
		time.Sleep(time.Millisecond)
	}
	for i, srv := range servers {
		if _, seq, _ := srv.State(key); seq != 0 {
			t.Errorf("replica %d at seq %d after a refused request, want 0", i, seq)
		}
	}
	c.Timeout, c.Retries = 2*time.Second, 3
	acks, err := c.RequestBatch(batch(600))
	if err != nil || len(acks) != 600 {
		t.Fatalf("600-message request: %d acks (%v)", len(acks), err)
	}
	waitReplicas(t, servers, key, 600)
	if d0, d1 := servers[0].Digest(), servers[1].Digest(); d0 != d1 {
		t.Errorf("digests differ: %#x vs %#x", d0, d1)
	}
}

// chainFrameCase is one row of the hostile-frame table.
type chainFrameCase struct {
	name  string
	frame []byte
	bad   bool
}

// chainFrameCases is the hostile-frame table: a well-formed frame naming
// requester, then malformations of it. It seeds FuzzChainFrame and drives
// TestUDPHostileChainFrames. keys are the flows the frames name; on a
// two-shard server they hash to different shards.
func chainFrameCases(requester *net.UDPAddr) (cases []chainFrameCase, keys [2]packet.FiveTuple) {
	keys[0] = udpKey()
	for keys[1] = keys[0]; keys[1].Hash()%2 == keys[0].Hash()%2; {
		keys[1].SrcPort++
	}
	up := func(k packet.FiveTuple) Update {
		return Update{Key: k, Vals: []uint64{5, 6}, LastSeq: 3, Owner: 1, LeaseExpiry: 1 << 60, Exists: true}
	}
	ack := []Output{{DstSwitch: 1, Msg: &wire.Message{Type: wire.MsgReplAck, Seq: 3, Key: keys[0], SwitchID: 1}}}
	one, _ := appendChainFrame(nil, requester, []Update{up(keys[0])}, ack)
	two, _ := appendChainFrame(nil, requester, []Update{up(keys[0]), up(keys[1])}, ack)
	mut := func(b []byte, fn func([]byte) []byte) []byte { return fn(append([]byte(nil), b...)) }
	setCount := func(n uint16) func([]byte) []byte {
		return func(b []byte) []byte { binary.BigEndian.PutUint16(b[chainCountOff:], n); return b }
	}
	add := func(name string, frame []byte, bad bool) {
		cases = append(cases, chainFrameCase{name, frame, bad})
	}
	add("valid one update", one, false)
	add("update for another shard", two, true) // only on a two-shard server
	add("truncated header", one[:chainHdrLen-9], true)
	add("header only", one[:chainHdrLen], true)
	add("count larger than payload", mut(one, setCount(3)), true)
	add("zero updates", mut(one, setCount(0)), true)
	add("oversized length prefix", mut(one, func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[chainHdrLen:], 0xFFFF)
		return b
	}), true)
	add("update cut short", mut(one, func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[chainHdrLen:], 20) // inside the fixed fields
		return b
	}), true)
	return cases, keys
}

// TestUDPHostileChainFrames: every malformed frame is dropped whole —
// counted in bad_dgrams, state untouched, nothing sent — while the
// well-formed one beside it in the table is applied and acknowledged.
func TestUDPHostileChainFrames(t *testing.T) {
	srv, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: time.Second}, WithUDPShards(2))
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cases, keys := chainFrameCases(conn.LocalAddr().(*net.UDPAddr))
	buf := make([]byte, 2048)
	for _, tc := range cases {
		if !tc.bad {
			continue
		}
		before, digest := srv.Stats().BadDgrams, srv.Digest()
		if _, err := conn.WriteToUDP(tc.frame, srv.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().BadDgrams == before; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: bad_dgrams never moved", tc.name)
			}
			time.Sleep(time.Millisecond)
		}
		if srv.Digest() != digest {
			t.Errorf("%s: state changed", tc.name)
		}
		for _, k := range keys {
			if _, _, ok := srv.State(k); ok {
				t.Errorf("%s: flow %v installed", tc.name, k)
			}
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, _, err := conn.ReadFromUDP(buf); err == nil {
			t.Errorf("%s: %d bytes sent to the frame's requester", tc.name, n)
		}
	}
	// The control: the same bytes, well formed, go through — this server
	// has no successor, so it is the tail and acknowledges.
	if _, err := conn.WriteToUDP(cases[0].frame, srv.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("well-formed frame not acknowledged: %v", err)
	}
	var ack wire.Message
	if err := ack.Unmarshal(buf[:n]); err != nil || ack.Type != wire.MsgReplAck || ack.Seq != 3 {
		t.Fatalf("ack = %+v (%v)", ack, err)
	}
	if vals, seq, ok := srv.State(keys[0]); !ok || seq != 3 || !reflect.DeepEqual(vals, []uint64{5, 6}) {
		t.Fatalf("applied state = %v seq %d ok=%v", vals, seq, ok)
	}
}

// TestChainFrameRequesterRoundTrip: the frame names IPv4 and IPv6
// requesters alike, and none at all.
func TestChainFrameRequesterRoundTrip(t *testing.T) {
	for _, s := range []string{"127.0.0.1:9501", "[2001:db8::7]:40000", ""} {
		var requester *net.UDPAddr
		var want netip.AddrPort
		if s != "" {
			want = netip.MustParseAddrPort(s)
			requester = net.UDPAddrFromAddrPort(want)
		}
		outs := []Output{{Msg: &wire.Message{Type: wire.MsgReplAck, Seq: 1, Key: udpKey()}}}
		frame, ack := appendChainFrame(nil, requester, []Update{{Key: udpKey(), Exists: true}}, outs)
		if got := frameRequester(frame); got.Port() != want.Port() || (s != "" && got != want) {
			t.Errorf("requester %q decoded as %v", s, got)
		}
		if (len(ack) == 0) != (s == "") {
			t.Errorf("requester %q: %d ack bytes", s, len(ack))
		}
	}
}

// FuzzChainFrame holds the decoder to its contract on arbitrary bytes:
// no panic, whole-frame-or-nothing, and whatever it accepts survives a
// re-encode and applies to a shard. It touches no socket.
func FuzzChainFrame(f *testing.F) {
	cases, _ := chainFrameCases(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9501})
	for _, tc := range cases {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		key, routable := frameFirstKey(b)
		ups, ack, err := decodeChainFrame(b, nil)
		if err != nil {
			return
		}
		if len(ups) == 0 || len(ups) != int(binary.BigEndian.Uint16(b[chainCountOff:])) {
			t.Fatalf("accepted %d updates for count field %d", len(ups), binary.BigEndian.Uint16(b[chainCountOff:]))
		}
		if !bytes.HasSuffix(b, ack) {
			t.Fatal("acknowledgment part is not the frame's tail")
		}
		if !routable || key != ups[0].Key {
			t.Fatalf("receiver routes by %v (ok=%v), shard applies %v", key, routable, ups[0].Key)
		}
		again, _, err := decodeChainFrame(func() []byte { fr, _ := appendChainFrame(nil, nil, ups, nil); return fr }(), nil)
		if err != nil || !reflect.DeepEqual(again, ups) {
			t.Fatalf("re-encode changed the updates: %v\n%+v\n%+v", err, ups, again)
		}
		sh := NewShard(Config{})
		for _, up := range ups {
			sh.Apply(up)
		}
	})
}
