package store

import (
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
