package store

import (
	"net"
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// startUDPChain launches n chained UDP servers on loopback and returns
// them head-first, plus a cleanup function.
func startUDPChain(t *testing.T, n int, cfg Config, opts ...UDPOption) []*UDPServer {
	t.Helper()
	// Build tail-first so each head knows its successor's bound port.
	var servers []*UDPServer
	next := ""
	for i := 0; i < n; i++ {
		srv, err := NewUDPServer("127.0.0.1:0", next, cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		next = srv.Addr().String()
		go func() { _ = srv.Serve() }()
		servers = append([]*UDPServer{srv}, servers...)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	// servers is currently head-last ordering? We prepended, so
	// servers[0] is the LAST created = the head (points at the rest).
	return servers
}

func udpKey() packet.FiveTuple {
	return packet.FiveTuple{Src: packet.MakeAddr(10, 0, 0, 1), Dst: packet.MakeAddr(10, 0, 0, 2),
		SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
}

func TestUDPLeaseAndReplicate(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second,
		InitState: func(packet.FiveTuple) []uint64 { return []uint64{7} }})
	c, err := DialUDP(servers[0].Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ack, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgLeaseNewAck || !ack.NewFlow || len(ack.Vals) != 1 || ack.Vals[0] != 7 {
		t.Fatalf("lease ack = %+v", ack)
	}

	ack, err = c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{42}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgReplAck || ack.Seq != 1 {
		t.Fatalf("repl ack = %+v", ack)
	}
	vals, seq, ok := servers[0].State(udpKey())
	if !ok || seq != 1 || vals[0] != 42 {
		t.Fatalf("state = %v seq=%d ok=%v", vals, seq, ok)
	}
}

func TestUDPChainTailReplies(t *testing.T) {
	servers := startUDPChain(t, 3, Config{LeasePeriod: time.Second})
	c, err := DialUDP(servers[0].Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgReplAck {
		t.Fatalf("ack = %+v", ack)
	}
	// Give the relay a moment, then confirm every replica converged.
	deadline := time.Now().Add(time.Second)
	for _, srv := range servers {
		for {
			_, seq, ok := srv.State(udpKey())
			if ok && seq == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %v never converged", srv.Addr())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestUDPLeaseConflictQueuedThenGranted(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: 300 * time.Millisecond})
	c1, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c1.Close()
	c2, _ := DialUDP(servers[0].Addr().String(), 2)
	defer c2.Close()

	if _, err := c1.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	// Switch 2's request is queued until switch 1's lease expires; the
	// flush loop should grant it within ~lease + tick.
	start := time.Now()
	ack, err := c2.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgLeaseNewAck {
		t.Fatalf("ack = %+v", ack)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Errorf("granted after %v, before the blocking lease could expire", elapsed)
	}
}

func TestUDPStaleWriteRejected(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second})
	c, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 2, Vals: []uint64{20}}); err != nil {
		t.Fatal(err)
	}
	// A stale seq-1 write gets a cumulative ack but must not change state.
	ack, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{10}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 2 {
		t.Fatalf("cumulative ack seq = %d", ack.Seq)
	}
	vals, _, _ := servers[0].State(udpKey())
	if vals[0] != 20 {
		t.Fatalf("stale write applied: %v", vals)
	}
}

func TestUDPNonOwnerWriteRejected(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second})
	c1, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c1.Close()
	c9, _ := DialUDP(servers[0].Addr().String(), 9)
	defer c9.Close()
	if _, err := c1.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	ack, err := c9.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{9}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != wire.MsgLeaseReject {
		t.Fatalf("non-owner write ack = %+v", ack)
	}
}

func TestUDPClientValidation(t *testing.T) {
	servers := startUDPChain(t, 1, Config{})
	c, _ := DialUDP(servers[0].Addr().String(), 1)
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgReplAck}); err == nil {
		t.Error("ack-typed request accepted")
	}
	if _, err := DialUDP("not-an-address::::", 1); err == nil {
		t.Error("bad address accepted")
	}
}

// TestUDPInternTableBoundedAndCorrect floods a chain tail's address
// intern table past its bound with handshakes from distinct source
// ports — each must be answered at its own port — then checks that a
// relayed write's ack still reaches the original requester after the
// reset dropped its interned origin, and that the table stayed bounded.
func TestUDPInternTableBoundedAndCorrect(t *testing.T) {
	cfg := Config{LeasePeriod: time.Minute}
	tail, err := NewUDPServer("127.0.0.1:0", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tailDone := make(chan error, 1)
	go func() { tailDone <- tail.Serve() }()
	head, err := NewUDPServer("127.0.0.1:0", tail.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = head.Serve() }()
	defer head.Close()

	c, err := DialUDP(head.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// Sockets stay open a wave at a time, so a reply sent to the wrong
	// interned address would land on a live neighbour and be caught.
	const wave = 128
	tailAddr := tail.Addr().(*net.UDPAddr)
	ports := make(map[int]bool)
	buf := make([]byte, 2048)
	for seq := uint64(0); len(ports) <= maxInternAddrs+wave; {
		conns := make([]*net.UDPConn, wave)
		for i := range conns {
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = conn
			ports[conn.LocalAddr().(*net.UDPAddr).Port] = true
			hello := wire.Message{Type: wire.MsgHello, Key: udpKey(), Seq: seq + uint64(i), SwitchID: 7}
			if _, err := conn.WriteToUDP(hello.Marshal(nil), tailAddr); err != nil {
				t.Fatal(err)
			}
		}
		for i, conn := range conns {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("hello %d: no reply at its own port: %v", seq+uint64(i), err)
			}
			var ack wire.Message
			if err := ack.Unmarshal(buf[:n]); err != nil || ack.Type != wire.MsgHelloAck || ack.Seq != seq+uint64(i) {
				t.Fatalf("hello %d: got %+v (err %v)", seq+uint64(i), ack, err)
			}
			conn.Close()
		}
		seq += wave
	}

	// The requester's interned origin is gone from the tail's table; the
	// next relayed write must re-intern it and ack the same socket.
	ack, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 2, Vals: []uint64{2}})
	if err != nil {
		t.Fatalf("relayed write after intern reset: %v", err)
	}
	if ack.Type != wire.MsgReplAck || ack.Seq != 2 {
		t.Fatalf("ack = %+v", ack)
	}

	tail.Close()
	<-tailDone // receivers have exited: their tables are safe to read
	for _, r := range tail.recvs {
		if n := len(r.addrs); n > maxInternAddrs {
			t.Errorf("receiver %d interned %d addresses, bound is %d (%d distinct sources seen)",
				r.idx, n, maxInternAddrs, len(ports))
		}
	}
}
