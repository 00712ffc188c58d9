package store

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"redplane/internal/durable"
	"redplane/internal/packet"
	"redplane/internal/wire"
)

// TestUDPDurableRestartRecovers is the real-file half of the durability
// contract: a server with -wal-dir that dies after acking (the Close
// here stands in for kill -9 — nothing is flushed on the way down that
// was not already fsynced before the ack) recovers every acknowledged
// write from the directory alone.
func TestUDPDurableRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{LeasePeriod: time.Second}

	srv, err := NewUDPServer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	be, err := durable.NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EnableDurability(be, DurabilityConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()

	c, err := DialUDP(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 3, Vals: []uint64{77}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgReplAck {
		t.Fatalf("ack = %+v", ack)
	}
	preCrash := srv.Digest()
	c.Close()
	srv.Close()

	// "Restart": a fresh process opens the same directory and must see
	// exactly the pre-crash state.
	srv2, err := NewUDPServer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	be2, err := durable.NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := srv2.EnableDurability(be2, DurabilityConfig{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Error("no WAL records replayed: the acked write was not logged")
	}
	vals, seq, ok := srv2.State(udpKey())
	if !ok || seq != 3 || vals[0] != 77 {
		t.Fatalf("recovered state vals=%v seq=%d ok=%v", vals, seq, ok)
	}
	if got := srv2.Digest(); got != preCrash {
		t.Fatalf("recovered digest %#x != pre-crash %#x", got, preCrash)
	}
}

// gateBackend wraps a durable.Backend so a test can hold a shard inside
// File.Sync: while armed, Sync announces itself on entered and blocks
// until release is closed. A Sync that begins while fail is set returns an
// error instead of syncing.
type gateBackend struct {
	durable.Backend
	armed   atomic.Bool
	fail    atomic.Bool
	entered chan struct{} // one token per Sync that found the gate armed
	release chan struct{}
}

func (g *gateBackend) Create(name string) (durable.File, error) {
	f, err := g.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	durable.File
	g *gateBackend
}

func (f *gateFile) Sync() error {
	if f.g.fail.Load() {
		return errors.New("injected sync failure")
	}
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestUDPGroupCommitSelfClocked pins the group-commit rule on the
// real-UDP path: a commit group is whatever queued while the previous
// group was in fsync — nothing lingers for more, nothing escapes early.
// One write parks the shard inside Sync; 50 more queue behind it; when
// the device "completes", they share exactly one further fsync. Sent one
// at a time against an instant device, every datagram is its own group.
func TestUDPGroupCommitSelfClocked(t *testing.T) {
	const flows = 51
	cfg := Config{LeasePeriod: time.Minute}
	mem := durable.NewMemBackend()
	gate := &gateBackend{Backend: mem, entered: make(chan struct{}, 1), release: make(chan struct{})}

	srv, err := NewUDPServer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.EnableDurability(gate, DurabilityConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	fsyncs := srv.Obs().NS("store-shard0").Counter("fsyncs")

	c, err := DialUDP(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 5 * time.Second // a retransmission would be a second datagram
	key := func(i int) packet.FiveTuple {
		k := udpKey()
		k.SrcPort = uint16(1000 + i)
		return k
	}

	// Instant device, one request at a time: each lease grant is its own
	// commit group — no timer merges or delays them.
	for i := 0; i < flows; i++ {
		if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The client has its 51st ack once WriteBatch hands it to the kernel;
	// txBatcher counts it only after that call returns. Let it.
	base := srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); base.TxDgrams < base.RxDgrams; base = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("tx=%d never reached rx=%d", base.TxDgrams, base.RxDgrams)
		}
		time.Sleep(time.Millisecond)
	}
	if ps := base.PerShard[0]; ps.Commits != flows || ps.Dgrams != flows || fsyncs.Value() != flows {
		t.Fatalf("one-at-a-time: commits=%d dgrams=%d fsyncs=%d, want %d each",
			ps.Commits, ps.Dgrams, fsyncs.Value(), flows)
	}

	send := func(i int) {
		t.Helper()
		m := wire.Message{Type: wire.MsgRepl, Key: key(i), Seq: 1, Vals: []uint64{uint64(100 + i)}, SwitchID: 1}
		if _, err := c.conn.WriteToUDP(m.Marshal(nil), c.head); err != nil {
			t.Fatal(err)
		}
	}
	gate.armed.Store(true)
	send(0)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("shard never reached Sync for the first write")
	}
	gate.armed.Store(false) // only the first Sync is held
	for i := 1; i < flows; i++ {
		send(i)
	}
	// The receiver publishes the ring depth after routing each rx batch,
	// so depth == 50 means every follower is queued behind the fsync.
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().PerShard[0].QueueDepth != flows-1; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", srv.Stats().PerShard[0].QueueDepth, flows-1)
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.RxDgrams != base.RxDgrams+flows || st.TxDgrams != base.TxDgrams ||
		st.PerShard[0].Commits != base.PerShard[0].Commits {
		t.Fatalf("while in fsync: rx=%d tx=%d commits=%d (base rx=%d tx=%d commits=%d): an ack escaped",
			st.RxDgrams, st.TxDgrams, st.PerShard[0].Commits,
			base.RxDgrams, base.TxDgrams, base.PerShard[0].Commits)
	}

	close(gate.release)
	acked := make(map[packet.FiveTuple]bool)
	buf := make([]byte, 2048)
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(acked) < flows {
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("after %d/%d acks: %v", len(acked), flows, err)
		}
		for _, a := range decodeAcks(buf[:n]) {
			if a.Type != wire.MsgReplAck || a.Seq != 1 {
				t.Fatalf("ack = %+v", a)
			}
			acked[a.Key] = true
		}
	}
	st := srv.Stats()
	if got := fsyncs.Value() - flows; got != 2 {
		t.Errorf("fsyncs for 1 + %d queued writes = %d, want 2", flows-1, got)
	}
	if got := st.PerShard[0].Commits - base.PerShard[0].Commits; got != 2 {
		t.Errorf("commit groups = %d, want 2", got)
	}
	if got := st.PerShard[0].Dgrams - base.PerShard[0].Dgrams; got != flows {
		t.Errorf("dgrams = %d, want %d", got, flows)
	}

	srv.Close()
	<-served
	// Every acked watermark is in the log alone.
	srv2, err := NewUDPServer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := srv2.EnableDurability(mem, DurabilityConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		vals, seq, ok := srv2.State(key(i))
		if !ok || seq != 1 || len(vals) != 1 || vals[0] != uint64(100+i) {
			t.Errorf("flow %d after reopen: vals=%v seq=%d ok=%v", i, vals, seq, ok)
		}
	}
}

// TestUDPChainPacksWaitForSync pins durable ⊇ forwarded ⊇ acked on a
// chained head: no pack leaves, and nothing reaches either of two
// requesters, before the fsync covering their entries; a relink while the
// pack is held applies to it; and when a group's fsync fails, its sealed
// and open packs are dropped alike — nothing forwarded, nothing
// acknowledged — until retransmissions re-propagate the writes.
func TestUDPChainPacksWaitForSync(t *testing.T) {
	const followers = 20 // more entries than one pack holds
	cfg := Config{LeasePeriod: time.Minute}
	tails := startUDPChain(t, 1, cfg)
	tails = append(tails, startUDPChain(t, 1, cfg)...)
	gate := &gateBackend{Backend: durable.NewMemBackend(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	head, err := NewUDPServer("127.0.0.1:0", tails[0].Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	if _, err := head.EnableDurability(gate, DurabilityConfig{Enabled: true}); err != nil {
		t.Fatal(err)
	}
	go func() { _ = head.Serve() }()
	c, err := DialUDP(head.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := func(i int) packet.FiveTuple { k := udpKey(); k.SrcPort = uint16(3000 + i); return k }
	for i := 0; i <= followers+1; i++ {
		if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: key(i)}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(i int) *wire.Message {
		return &wire.Message{Type: wire.MsgRepl, Key: key(i), Seq: 1, Vals: []uint64{uint64(i)}, SwitchID: 1}
	}
	// The followers come from two requesters, alternating.
	other, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	requesters := []*net.UDPConn{c.conn, other}
	send := func(i int) {
		t.Helper()
		if _, err := requesters[i%2].WriteToUDP(write(i).Marshal(nil), c.head); err != nil {
			t.Fatal(err)
		}
	}
	relays := head.Obs().NS("udp-shard0").Counter("relay_dgrams")
	base, rx0, rx1 := relays.Value(), tails[0].Stats().RxDgrams, tails[1].Stats().RxDgrams
	handled := head.Stats().PerShard[0].Dgrams

	// Write 0 parks the head in its fsync; the followers queue behind it and
	// will be one group, whose fsync fails.
	gate.armed.Store(true)
	send(0)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("head never reached Sync for the first write")
	}
	gate.armed.Store(false)
	gate.fail.Store(true)
	for i := 1; i <= followers; i++ {
		send(i)
	}
	for deadline := time.Now().Add(5 * time.Second); head.Stats().PerShard[0].QueueDepth != followers; {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", head.Stats().PerShard[0].QueueDepth, followers)
		}
		time.Sleep(time.Millisecond)
	}
	if err := head.SetNextAddr(tails[1].Addr().String()); err != nil {
		t.Fatal(err)
	}
	if relays.Value() != base || tails[0].Stats().RxDgrams != rx0 || tails[1].Stats().RxDgrams != rx1 {
		t.Fatal("a pack left the head before the fsync covering it returned")
	}
	buf := make([]byte, 2048)
	for i, conn := range requesters {
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, _, err := conn.ReadFromUDP(buf); err == nil {
			t.Fatalf("requester %d got %d bytes before the fsync covering its writes returned", i, n)
		}
	}
	close(gate.release)

	// Write 0's pack was held across the relink: the new successor gets it.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := c.conn.ReadFromUDP(buf)
	if acks := decodeAcks(buf[:n]); err != nil || len(acks) != 1 || acks[0].Key != key(0) {
		t.Fatalf("first write after the relink: acks %+v (%v)", acks, err)
	}
	// A barrier write behind the failed group: once it is acknowledged,
	// anything that group forwarded would have arrived before it.
	for deadline := time.Now().Add(5 * time.Second); head.Stats().PerShard[0].Dgrams != handled+1+followers; {
		if time.Now().After(deadline) {
			t.Fatal("head never processed the queued group")
		}
		time.Sleep(time.Millisecond)
	}
	gate.fail.Store(false)
	if ack, err := c.Request(write(followers + 1)); err != nil || ack.Key != key(followers+1) {
		t.Fatalf("barrier write: %+v (%v): an ack of the failed group escaped, or none came", ack, err)
	}
	other.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, _, err := other.ReadFromUDP(buf); err == nil {
		t.Errorf("the second requester got %d bytes though its writes' fsync failed", n)
	}
	if got := relays.Value() - base; got != 2 {
		t.Errorf("head sent %d packs, want 2: the first write's and the barrier's", got)
	}
	if got := tails[1].Stats().RxDgrams - rx1; got != 2 {
		t.Errorf("new successor received %d datagrams, want 2", got)
	}
	if got := tails[0].Stats().RxDgrams - rx0; got != 0 {
		t.Errorf("old successor received %d datagrams after the relink", got)
	}
	for i := 1; i <= followers; i++ {
		if _, _, ok := tails[1].State(key(i)); ok {
			t.Errorf("write %d reached the successor though its fsync failed", i)
		}
	}
	// The switch retransmits; the head re-propagates what it already holds.
	for i := 1; i <= followers; i++ {
		if ack, err := c.Request(write(i)); err != nil || ack.Type != wire.MsgReplAck {
			t.Fatalf("retransmission of write %d: %+v (%v)", i, ack, err)
		}
	}
	if d, want := tails[1].Digest(), head.Digest(); d != want {
		t.Errorf("successor digest %#x != head's %#x", d, want)
	}
}
