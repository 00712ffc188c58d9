package store

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"redplane/internal/obs"
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

// chainPack builds the datagram a predecessor in view 0 sends for one
// commit; appendChainEntry adds further commits to it.
func chainPack(requester netip.AddrPort, ups []Update, outs []Output) []byte {
	return appendChainEntry([]byte{chainMagic, 0, 0, 0, 0, 0, 0, 0, 0}, requester, ups, outs)
}

// localAddrPort is conn's bound address as chain entries and txSlots carry it.
func localAddrPort(conn *net.UDPConn) netip.AddrPort {
	return unmapped(conn.LocalAddr().(*net.UDPAddr))
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
		ack := []Output{{DstSwitch: 1, Msg: wire.Message{Type: wire.MsgReplAck, Seq: up.LastSeq, Key: key, SwitchID: 1}}}
		frame := chainPack(localAddrPort(conn), []Update{up}, ack)
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

// greedyFill counts the datagrams a greedy fill at item boundaries puts
// items of these sizes in: each datagram starts with hdr bytes and is
// closed when the next item would take it past chainPackBytes.
func greedyFill(hdr int, sizes []int) int {
	n, fill := 0, 0
	for _, s := range sizes {
		if n == 0 || fill+s > chainPackBytes {
			n, fill = n+1, hdr
		}
		fill += s
	}
	return n
}

// readAcks reads conn's acknowledgments, batch or plain, until want of
// them arrived, and then requires 20 ms of silence.
func readAcks(t *testing.T, conn *net.UDPConn, want int) []*wire.Message {
	t.Helper()
	var acks []*wire.Message
	buf := make([]byte, 65536)
	for len(acks) < want {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("%d of %d acks: %v", len(acks), want, err)
		}
		acks = append(acks, decodeAcks(buf[:n])...)
	}
	conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, _, err := conn.ReadFromUDP(buf); err == nil || len(acks) > want {
		t.Fatalf("%d acks and then %d bytes, beyond the %d expected", len(acks), n, want)
	}
	return acks
}

func shardCounter(srv *UDPServer, name string) uint64 {
	return srv.Obs().NS("udp-shard0").Counter(name).Value()
}

// TestUDPChainPackBoundaries pins how a commit group's entries fill chain
// packs and its acknowledgments fill reply datagrams. The group is made
// deterministic by queueing its datagrams on the head's socket before the
// head serves: one recvmmsg delivers them all and the shard commits them
// together, so the head sends exactly the packs a greedy fill at entry
// boundaries gives and every replica forwards them as they came. The
// tail serves once they are all queued on its socket, so it commits them
// together too: each requester gets its own acknowledgments, coalesced in
// the datagrams a greedy fill per requester gives, though the two
// requesters' entries alternate. Then an entry that alone exceeds the
// budget travels alone, and its acknowledgment batch arrives whole.
func TestUDPChainPackBoundaries(t *testing.T) {
	const n = 30 // one rx batch (32) holds the group
	cfg := Config{LeasePeriod: time.Minute}
	var servers []*UDPServer // head first
	for i, next := 0, ""; i < 3; i++ {
		srv, err := NewUDPServer("127.0.0.1:0", next, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		next = srv.Addr().String()
		servers = append([]*UDPServer{srv}, servers...)
	}
	head, mid, tail := servers[0], servers[1], servers[2]
	go func() { _ = mid.Serve() }()

	// Switch 1 holds the even flows' leases and switch 2 the odd ones', on
	// the head and on a reference shard that predicts each entry's size.
	key := func(i int) packet.FiveTuple { k := udpKey(); k.SrcPort = uint16(2000 + i); return k }
	write := func(i int) *wire.Message {
		return &wire.Message{Type: wire.MsgRepl, Key: key(i), Seq: 1, Vals: []uint64{uint64(100 + i)}, SwitchID: 1 + i%2}
	}
	ref := NewShard(cfg)
	var leases []Update
	for i := 0; i < n; i++ {
		leases = append(leases, Update{Key: key(i), Owner: 1 + i%2, LeaseExpiry: time.Now().Add(time.Minute).UnixNano(), Exists: true})
		ref.Apply(leases[i])
	}
	head.InstallState(leases, false)
	var conns [2]*net.UDPConn
	for i := range conns {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	var entries []int
	var acks [2][]int // each requester's acknowledgments, as batch members
	for i := 0; i < n; i++ {
		if _, err := conns[i%2].WriteToUDP(write(i).Marshal(nil), head.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		outs, ups := ref.ProcessBatch(time.Now().UnixNano(), []*wire.Message{write(i)})
		entries = append(entries, len(appendChainEntry(nil, localAddrPort(conns[i%2]), ups, outs)))
		acks[i%2] = append(acks[i%2], 2+len(appendAcks(nil, outs)))
	}
	wantPacks := greedyFill(chainPackHdr, entries)
	wantReplies := greedyFill(wire.BatchHeaderLen, acks[0]) + greedyFill(wire.BatchHeaderLen, acks[1])
	if wantPacks < 2 || wantPacks > n/4 {
		t.Fatalf("%d entries predicted to fill %d packs: the group should span a few", n, wantPacks)
	}
	go func() { _ = head.Serve() }()
	// tx_dgrams counts a datagram once the kernel has it: on loopback, once
	// it is queued on the tail's socket.
	for deadline := time.Now().Add(5 * time.Second); shardCounter(mid, "relays") != n || mid.Stats().TxDgrams != shardCounter(mid, "relay_dgrams"); {
		if time.Now().After(deadline) {
			t.Fatalf("the middle relayed %d of %d entries", shardCounter(mid, "relays"), n)
		}
		time.Sleep(time.Millisecond)
	}
	go func() { _ = tail.Serve() }()

	for ci, conn := range conns {
		got := map[packet.FiveTuple]bool{}
		for _, ack := range readAcks(t, conn, n/2) {
			if ack.Type != wire.MsgReplAck || ack.Seq != 1 || ack.SwitchID != ci+1 || got[ack.Key] {
				t.Fatalf("switch %d: ack %+v: not one of its own, or a duplicate", ci+1, ack)
			}
			got[ack.Key] = true
		}
	}
	for i := 0; i < n; i++ {
		waitReplicas(t, servers, key(i), 1)
	}
	for i, srv := range servers[:2] {
		relays, packs := shardCounter(srv, "relays"), shardCounter(srv, "relay_dgrams")
		if relays != n {
			t.Errorf("replica %d relayed %d entries, want %d", i, relays, n)
		}
		if head.IOPath() == "mmsg" && packs != uint64(wantPacks) {
			t.Errorf("replica %d sent %d packs, want the greedy fill's %d", i, packs, wantPacks)
		}
		if packs == 0 || packs > n {
			t.Errorf("replica %d sent %d packs for %d entries", i, packs, n)
		}
	}
	replies, dgrams := shardCounter(tail, "replies"), shardCounter(tail, "reply_dgrams")
	if replies != n {
		t.Errorf("tail acknowledged %d commits, want %d", replies, n)
	}
	if head.IOPath() == "mmsg" && dgrams != uint64(wantReplies) {
		t.Errorf("tail sent %d ack datagrams, want the per-requester greedy fill's %d", dgrams, wantReplies)
	}
	if dgrams == 0 || dgrams > n {
		t.Errorf("tail sent %d ack datagrams for %d commits", dgrams, n)
	}

	// Sixteen flows' writes in one request: one commit, one entry, larger
	// than a pack's budget and smaller than a datagram. It is sent whole.
	c, err := DialUDP(head.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var big []*wire.Message
	for i := 0; i < 16; i++ {
		k := key(n + i)
		if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: k}); err != nil {
			t.Fatal(err)
		}
		big = append(big, &wire.Message{Type: wire.MsgRepl, Key: k, Seq: 1, Vals: []uint64{1, 2, 3, 4, 5, 6, 7, 8}})
	}
	if least := len(big) * (2 + len(EncodeUpdate(nil, Update{Vals: big[0].Vals}))); least <= chainPackBytes {
		t.Fatalf("the request's updates alone are %d bytes: not past the %d-byte budget", least, chainPackBytes)
	}
	relays, packs := shardCounter(head, "relays"), shardCounter(head, "relay_dgrams")
	replies, dgrams = shardCounter(tail, "replies"), shardCounter(tail, "reply_dgrams")
	bigAcks, err := c.RequestBatch(big)
	if err != nil || len(bigAcks) != 16 {
		t.Fatalf("16-flow request: %d acks (%v)", len(bigAcks), err)
	}
	if dr, dp := shardCounter(head, "relays")-relays, shardCounter(head, "relay_dgrams")-packs; dr != 1 || dp != 1 {
		t.Errorf("16-flow request left the head as %d entries in %d packs, want 1 in 1", dr, dp)
	}
	if dr, dd := shardCounter(tail, "replies")-replies, shardCounter(tail, "reply_dgrams")-dgrams; dr != 1 || dd != 1 {
		t.Errorf("16-flow request's acks left the tail as %d commits in %d datagrams, want 1 in 1", dr, dd)
	}
	if got := servers[1].Stats().BadDgrams + servers[2].Stats().BadDgrams; got != 0 {
		t.Errorf("successors dropped %d datagrams", got)
	}
	for i := range big {
		waitReplicas(t, servers, key(n+i), 1)
	}
	for i, srv := range servers {
		if d, want := srv.Digest(), head.Digest(); d != want {
			t.Errorf("replica %d digest %#x != head's %#x", i, d, want)
		}
	}
}

// TestUDPUnchainedRepliesCoalesced: an unchained server answers a commit
// group's requests from one switch in the datagrams a greedy fill of their
// acknowledgments gives — the group made deterministic, as above, by
// queueing it before the server serves — each write acknowledged once, a
// batched request's acknowledgments flattened in among the others.
func TestUDPUnchainedRepliesCoalesced(t *testing.T) {
	const n = 30 // one-write requests; with the batched one, one rx batch (32) holds the group
	srv, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := func(i int) packet.FiveTuple { k := udpKey(); k.SrcPort = uint16(4000 + i); return k }
	var leases []Update
	var sizes []int
	var batch wire.Batch // writes n and n+1, the group's last request
	for i := 0; i < n+2; i++ {
		leases = append(leases, Update{Key: key(i), Owner: 1, LeaseExpiry: time.Now().Add(time.Minute).UnixNano(), Exists: true})
		m := &wire.Message{Type: wire.MsgRepl, Key: key(i), Seq: 1, Vals: []uint64{uint64(i)}, SwitchID: 1}
		if i >= n {
			batch.Msgs = append(batch.Msgs, m)
		} else if _, err := conn.WriteToUDP(m.Marshal(nil), srv.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		ack := wire.Message{Type: wire.MsgReplAck, Key: key(i), Seq: 1, SwitchID: 1}
		sizes = append(sizes, 2+len(ack.Marshal(nil)))
	}
	if _, err := conn.WriteToUDP(batch.Marshal(nil), srv.Addr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	srv.InstallState(leases, false)
	go func() { _ = srv.Serve() }()

	got := map[packet.FiveTuple]bool{}
	for _, ack := range readAcks(t, conn, n+2) {
		if ack.Type != wire.MsgReplAck || ack.Seq != 1 || got[ack.Key] {
			t.Fatalf("ack %+v: not a write's, or a duplicate", ack)
		}
		got[ack.Key] = true
	}
	st := srv.Stats().PerShard[0]
	want := greedyFill(wire.BatchHeaderLen, sizes)
	if st.Replies != n+1 {
		t.Errorf("%d commits acknowledged, want %d", st.Replies, n+1)
	}
	if srv.IOPath() == "mmsg" && st.ReplyDgrams != uint64(want) {
		t.Errorf("%d ack datagrams, want the greedy fill's %d", st.ReplyDgrams, want)
	}
	if st.ReplyDgrams == 0 || st.ReplyDgrams > n {
		t.Errorf("%d ack datagrams for %d commits", st.ReplyDgrams, n)
	}
}

// TestUDPLoneAckIsPlainFrame: on an idle chain nothing is coalesced, and a
// write's acknowledgment arrives as the plain frame it always was.
func TestUDPLoneAckIsPlainFrame(t *testing.T) {
	servers := startUDPChain(t, 3, Config{LeasePeriod: time.Minute})
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := udpKey()
	buf := make([]byte, 2048)
	for _, m := range []wire.Message{
		{Type: wire.MsgLeaseNew, Key: key, SwitchID: 1},
		{Type: wire.MsgRepl, Key: key, Seq: 1, Vals: []uint64{7}, SwitchID: 1},
	} {
		if _, err := conn.WriteToUDP(m.Marshal(nil), servers[0].Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if m.Type == wire.MsgRepl {
			ack := wire.Message{Type: wire.MsgReplAck, Seq: 1, Key: key, SwitchID: 1}
			if want := ack.Marshal(nil); !bytes.Equal(buf[:n], want) {
				t.Fatalf("write acknowledged with %x, want the plain frame %x", buf[:n], want)
			}
		}
	}
	if r, d := shardCounter(servers[2], "replies"), shardCounter(servers[2], "reply_dgrams"); r != 2 || d != 2 {
		t.Errorf("tail: %d commits acknowledged in %d datagrams, want 2 in 2", r, d)
	}
}

// TestAppendAcksNoAllocs: a commit's reply is one plain frame for a lone
// ack and the bytes wire.Batch.Marshal writes for several, built without
// allocating.
func TestAppendAcksNoAllocs(t *testing.T) {
	var outs []Output
	var bt wire.Batch
	for i := 0; i < 16; i++ {
		k := udpKey()
		k.SrcPort = uint16(i)
		m := &wire.Message{Type: wire.MsgReplAck, Seq: uint64(i), Key: k, SwitchID: 1, Vals: make([]uint64, i%3)}
		outs, bt.Msgs = append(outs, Output{DstSwitch: 1, Msg: *m}), append(bt.Msgs, m)
	}
	if got, want := appendAcks(nil, outs[:1]), outs[0].Msg.Marshal(nil); !bytes.Equal(got, want) {
		t.Errorf("one ack framed as %x, want the plain frame %x", got, want)
	}
	for _, n := range []int{2, 16} {
		sub := wire.Batch{Msgs: bt.Msgs[:n]}
		if got, want := appendAcks([]byte{0xAA}, outs[:n]), sub.Marshal([]byte{0xAA}); !bytes.Equal(got, want) {
			t.Errorf("%d acks framed as %x, want wire.Batch.Marshal's %x", n, got, want)
		}
	}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendAcks(buf[:0], outs) }); allocs != 0 {
		t.Errorf("appendAcks allocates %.1f times per 16-ack reply", allocs)
	}
}

// chainFrameCase is one row of the hostile-frame table.
type chainFrameCase struct {
	name  string
	frame []byte
	acks  int // entries a tail acknowledges; 0 = malformed, dropped whole
}

// chainFrameCases is the hostile-frame table: well-formed packs naming
// requester, then malformations of them. It seeds FuzzChainFrame and
// drives TestUDPHostileChainFrames. keys are the flows the packs name; on
// a two-shard server keys[1] hashes to another shard than keys[0] and
// keys[2], and every pack's first entry is for keys[0].
func chainFrameCases(requester netip.AddrPort) (cases []chainFrameCase, keys [3]packet.FiveTuple) {
	keys[0] = udpKey()
	for keys[1] = keys[0]; keys[1].Hash()%2 == keys[0].Hash()%2; {
		keys[1].SrcPort++
	}
	for keys[2] = keys[1]; keys[2].Hash()%2 != keys[0].Hash()%2; {
		keys[2].SrcPort++
	}
	up := func(k packet.FiveTuple) []Update {
		return []Update{{Key: k, Vals: []uint64{5, 6}, LastSeq: 3, Owner: 1, LeaseExpiry: 1 << 60, Exists: true}}
	}
	ack := func(k packet.FiveTuple) []Output {
		return []Output{{DstSwitch: 1, Msg: wire.Message{Type: wire.MsgReplAck, Seq: 3, Key: k, SwitchID: 1}}}
	}
	one := chainPack(requester, up(keys[0]), ack(keys[0]))
	two := appendChainEntry(append([]byte(nil), one...), requester, up(keys[2]), ack(keys[2]))
	const hdr = chainPackHdr + chainEntryHdr // through the first entry's header
	mut := func(b []byte, fn func([]byte)) []byte { b = append([]byte(nil), b...); fn(b); return b }
	// put16 overwrites the big-endian field at off: an entry's count is 4
	// bytes before its header's end, its acknowledgment length 2.
	put16 := func(off int, v uint16) func([]byte) {
		return func(b []byte) { binary.BigEndian.PutUint16(b[off:], v) }
	}
	add := func(name string, frame []byte, acks int) {
		cases = append(cases, chainFrameCase{name, frame, acks})
	}
	add("valid one entry", one, 1)
	add("update for another shard", chainPack(requester, append(up(keys[0]), up(keys[1])...), ack(keys[0])), 0) // only on a two-shard server
	add("truncated header", one[:hdr-9], 0)
	add("header only", one[:hdr], 0)
	add("count larger than payload", mut(one, put16(hdr-4, 3)), 0)
	add("zero updates", mut(one, put16(hdr-4, 0)), 0)
	add("oversized length prefix", mut(one, put16(hdr, 0xFFFF)), 0)
	add("update cut short", mut(one, put16(hdr, 20)), 0) // inside the fixed fields
	add("valid two entries", two, 2)
	add("second entry truncated", two[:len(two)-len(one)/2], 0)
	add("second entry without updates", mut(two, put16(len(one)+chainEntryHdr-4, 0)), 0)
	add("second entry for another shard", appendChainEntry(append([]byte(nil), one...), requester, up(keys[1]), ack(keys[1])), 0) // two-shard only
	add("ack length past the end", mut(two, func(b []byte) {
		at := len(one) + chainEntryHdr - 2
		binary.BigEndian.PutUint16(b[at:], binary.BigEndian.Uint16(b[at:])+1)
	}), 0)
	add("trailing bytes shorter than an entry header", append(append([]byte(nil), one...), make([]byte, chainEntryHdr-1)...), 0)
	return cases, keys
}

// TestUDPHostileChainFrames: every malformed pack is dropped whole —
// counted in bad_dgrams, state untouched (its well-formed first entry
// included), nothing sent — while the well-formed ones beside them in the
// table are applied and every entry acknowledged.
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
	cases, keys := chainFrameCases(localAddrPort(conn))
	buf := make([]byte, 2048)
	for _, tc := range cases {
		if tc.acks > 0 {
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
			t.Errorf("%s: %d bytes sent to the pack's requester", tc.name, n)
		}
	}
	// The controls: the same bytes, well formed, go through — this server
	// has no successor, so it is the tail and acknowledges every entry, in
	// order, batch-framed or plain.
	for _, tc := range cases {
		if tc.acks == 0 {
			continue
		}
		if _, err := conn.WriteToUDP(tc.frame, srv.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		acks := readAcks(t, conn, tc.acks)
		for i, want := range []packet.FiveTuple{keys[0], keys[2]}[:tc.acks] {
			if ack := acks[i]; ack.Type != wire.MsgReplAck || ack.Seq != 3 || ack.Key != want {
				t.Fatalf("%s: ack %d = %+v, want seq 3 of %v", tc.name, i, ack, want)
			}
			if vals, seq, ok := srv.State(want); !ok || seq != 3 || !reflect.DeepEqual(vals, []uint64{5, 6}) {
				t.Fatalf("%s: applied state of %v = %v seq %d ok=%v", tc.name, want, vals, seq, ok)
			}
		}
	}
}

// TestChainFrameRequesterRoundTrip: an entry names IPv4 and IPv6
// requesters alike, and none at all.
func TestChainFrameRequesterRoundTrip(t *testing.T) {
	for _, s := range []string{"127.0.0.1:9501", "[2001:db8::7]:40000", ""} {
		var want netip.AddrPort
		if s != "" {
			want = netip.MustParseAddrPort(s)
		}
		outs := []Output{{Msg: wire.Message{Type: wire.MsgReplAck, Seq: 1, Key: udpKey()}}}
		e, rest, err := nextChainEntry(chainPack(want, []Update{{Key: udpKey(), Exists: true}}, outs)[chainPackHdr:])
		if err != nil || len(rest) != 0 {
			t.Fatalf("requester %q: %d bytes after the entry (%v)", s, len(rest), err)
		}
		if got := e.requester; got.Port() != want.Port() || (s != "" && got != want) {
			t.Errorf("requester %q decoded as %v", s, got)
		}
		if (len(e.ack) == 0) != (s == "") {
			t.Errorf("requester %q: %d ack bytes", s, len(e.ack))
		}
	}
}

// captureWriter keeps what a shard sends instead of sending it.
type captureWriter struct{ sent []txSlot }

func (w *captureWriter) WriteBatch(slots []txSlot) error {
	for _, s := range slots {
		w.sent = append(w.sent, txSlot{buf: append([]byte(nil), s.buf...), addr: s.addr})
	}
	return nil
}

// tailAcks commits one held pack on the shard of an unchained server
// whose egress is captured: what a tail sends for the pack, with no socket.
func tailAcks(pack []byte, entries int) (sent []txSlot, replies, dgrams uint64) {
	w := &captureWriter{}
	c := func() *obs.Counter { return new(obs.Counter) }
	sh := &udpShard{srv: &UDPServer{}, commits: c(), replies: c(), replyDgrams: c(),
		tx: &txBatcher{bw: w, slots: make([]txSlot, txBatch), txBatches: c(), txDgrams: c()}}
	held := append([]byte(nil), pack...)
	sh.pendingRelay = append(sh.pendingRelay, pendingRelay{base: &held, pack: held, entries: entries})
	sh.commit()
	return w.sent, sh.replies.Value(), sh.replyDgrams.Value()
}

// ackUnits is what a switch decodes an acknowledgment datagram into: a
// batch's member messages, or else the datagram itself — a plain frame, or
// a malformed batch that a tail passes on as it came.
func ackUnits(b []byte) [][]byte {
	frames, err := wire.MemberFrames(b, nil)
	if err != nil {
		return [][]byte{b}
	}
	for i := range frames {
		frames[i] = frames[i][2:]
	}
	return frames
}

// FuzzChainFrame holds the decoder to its contract on arbitrary bytes:
// no panic, whole-pack-or-nothing, the tail's walk of an accepted pack
// covers exactly its bytes in as many entries as the decoder counted, and
// whatever was accepted survives a re-encode and applies to a shard. What
// the tail sends for an accepted pack is each requester's acknowledgment
// parts and nothing else, batch-framed or plain: their messages once each,
// a lone part as its own bytes, no datagram past the budget but a part
// that was already. It touches no socket.
func FuzzChainFrame(f *testing.F) {
	requester := netip.MustParseAddrPort("127.0.0.1:9501")
	cases, keys := chainFrameCases(requester)
	for _, tc := range cases {
		f.Add(tc.frame)
	}
	// A pack whose acknowledgments to one requester need two datagrams,
	// every fifth entry's a batch of two.
	many := []byte{chainMagic, 0, 0, 0, 0, 0, 0, 0, 0}
	for seq := uint64(1); seq <= 40; seq++ {
		acks := []Output{{Msg: wire.Message{Type: wire.MsgReplAck, Seq: seq, Key: keys[0], SwitchID: 1}}}
		if seq%5 == 0 {
			acks = append(acks, Output{Msg: wire.Message{Type: wire.MsgReplAck, Seq: seq, Key: keys[2], SwitchID: 1}})
		}
		many = appendChainEntry(many, requester, []Update{{Key: keys[0], LastSeq: seq, Exists: true}}, acks)
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, b []byte) {
		key, routable := packFirstKey(b)
		ups, entries, err := decodeChainPack(b, nil, nil)
		if err != nil {
			return
		}
		walked, updates := 0, 0
		parts := map[netip.AddrPort][][]byte{}
		for rest := b[chainPackHdr:]; len(rest) > 0; walked++ {
			e, after, err := nextChainEntry(rest)
			if err != nil {
				t.Fatalf("the tail's walk fails at entry %d of an accepted pack: %v", walked, err)
			}
			if chainEntryHdr+len(e.ups)+len(e.ack)+len(after) != len(rest) {
				t.Fatalf("entry %d: %d+%d+%d bytes and %d after it, of %d", walked, chainEntryHdr, len(e.ups), len(e.ack), len(after), len(rest))
			}
			if e.requester.Port() != 0 && len(e.ack) > 0 {
				parts[e.requester] = append(parts[e.requester], e.ack)
			}
			updates += int(binary.BigEndian.Uint16(rest[chainEntryHdr-4:]))
			rest = after
		}
		if entries == 0 || walked != entries || len(ups) != updates || updates < entries {
			t.Fatalf("decoder: %d entries, %d updates; walk: %d entries, count fields sum to %d", entries, len(ups), walked, updates)
		}
		if !routable || key != ups[0].Key {
			t.Fatalf("receiver routes by %v (ok=%v), shard applies %v", key, routable, ups[0].Key)
		}
		var arena []uint64
		if pooled, _, err := decodeChainPack(b, nil, &arena); err != nil || !reflect.DeepEqual(pooled, ups) {
			t.Fatalf("decoding into an arena changed the updates: %v\n%+v\n%+v", err, ups, pooled)
		}
		if len(ups) <= 0xFFFF {
			again, _, err := decodeChainPack(chainPack(netip.AddrPort{}, ups, nil), nil, nil)
			if err != nil || !reflect.DeepEqual(again, ups) {
				t.Fatalf("re-encode changed the updates: %v\n%+v\n%+v", err, ups, again)
			}
		}
		sh := NewShard(Config{})
		for _, up := range ups {
			sh.Apply(up)
		}

		sent, replies, dgrams := tailAcks(b, entries)
		got, to := map[netip.AddrPort][][]byte{}, map[netip.AddrPort][][]byte{}
		for _, s := range sent {
			if len(s.buf) > chainPackBytes && !slices.ContainsFunc(parts[s.addr], func(p []byte) bool { return bytes.Equal(p, s.buf) }) {
				t.Fatalf("a %d-byte datagram to %v is past the budget and not one acknowledgment part", len(s.buf), s.addr)
			}
			got[s.addr] = append(got[s.addr], ackUnits(s.buf)...)
			to[s.addr] = append(to[s.addr], s.buf)
		}
		nparts := 0
		for req, ps := range parts {
			nparts += len(ps)
			if len(ps) == 1 && (len(to[req]) != 1 || !bytes.Equal(to[req][0], ps[0])) {
				t.Fatalf("%v's lone acknowledgment part %x left as %x", req, ps[0], to[req])
			}
			var want [][]byte
			for _, p := range ps {
				want = append(want, ackUnits(p)...)
			}
			slices.SortFunc(want, bytes.Compare)
			slices.SortFunc(got[req], bytes.Compare)
			if !slices.EqualFunc(want, got[req], bytes.Equal) {
				t.Fatalf("%v was sent %x, want the messages %x", req, got[req], want)
			}
		}
		if len(got) != len(parts) || replies != uint64(nparts) || dgrams != uint64(len(sent)) {
			t.Fatalf("%d requesters named, %d sent to; replies %d of %d parts, reply_dgrams %d of %d sent",
				len(parts), len(got), replies, nparts, dgrams, len(sent))
		}
	})
}
