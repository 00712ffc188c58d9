package store

import (
	"errors"
	"net"
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// TestUDPHelloReportsTopology pins the deployment handshake: a chain's
// head and tail answer MsgHello with their shard count and role, and
// VerifyDeployTarget accepts the head while rejecting the tail once it
// has seen relayed traffic.
func TestUDPHelloReportsTopology(t *testing.T) {
	servers := startUDPChain(t, 2, Config{LeasePeriod: time.Second})
	head, tail := servers[0], servers[1]

	hi, err := HelloUDP(head.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.Shards != 1 || !hi.HasNext || hi.RelaySeen || hi.ChainPos != -1 {
		t.Fatalf("head hello = %+v", hi)
	}

	// Push one write through the chain so the tail sees a relay.
	c, err := DialUDP(head.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{9}}); err != nil {
		t.Fatal(err)
	}

	hi, err = HelloUDP(tail.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.HasNext || !hi.RelaySeen {
		t.Fatalf("tail hello = %+v", hi)
	}

	if _, err := VerifyDeployTarget(head.Addr().String(), 1, 0); err != nil {
		t.Fatalf("head rejected: %v", err)
	}
	if _, err := VerifyDeployTarget(tail.Addr().String(), 1, 0); err == nil {
		t.Fatal("relay-seen tail accepted as deploy target")
	}
	if _, err := VerifyDeployTarget(head.Addr().String(), 4, 0); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}

// TestUDPMisrouteGuard pins the control-plane fencing: once a server is
// told it sits mid-chain, direct mutating requests are dropped (the
// client times out) while hellos still answer.
func TestUDPMisrouteGuard(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second})
	srv := servers[0]
	srv.SetChainPos(1)
	srv.SetViewNum(3)

	hi, err := HelloUDP(srv.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ChainPos != 1 || hi.View != 3 {
		t.Fatalf("hello = %+v", hi)
	}

	c, err := DialUDP(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout, c.Retries = 20*time.Millisecond, 2
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("direct lease to mid-chain server: err = %v, want timeout", err)
	}
	if got := srv.misrouteDrops.Value(); got == 0 {
		t.Fatal("misroute_drops not counted")
	}

	// Re-announcing it as head lifts the guard.
	srv.SetChainPos(0)
	c.Timeout, c.Retries = 200*time.Millisecond, 5
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatalf("lease after head announcement: %v", err)
	}
}

// TestUDPHeadDropsChainPacks pins the guard's mirror image: a server the
// control plane placed at the head has no predecessor, so a well-formed
// pack in its own view is dropped — counted, nothing applied, nothing
// acknowledged. With no control plane, or placed downstream, the same
// bytes are applied and acknowledged.
func TestUDPHeadDropsChainPacks(t *testing.T) {
	srv := startUDPChain(t, 1, Config{LeasePeriod: time.Second})[0]
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 2048)
	for seq, pos := range []int{0, -1, 2} {
		srv.SetChainPos(pos)
		up := Update{Key: udpKey(), Vals: []uint64{7}, LastSeq: uint64(seq + 1), Owner: 1, LeaseExpiry: 1 << 60, Exists: true}
		ack := []Output{{DstSwitch: 1, Msg: wire.Message{Type: wire.MsgReplAck, Seq: up.LastSeq, Key: up.Key, SwitchID: 1}}}
		drops := srv.misrouteDrops.Value()
		if _, err := conn.WriteToUDP(chainPack(localAddrPort(conn), []Update{up}, ack), srv.Addr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
		if pos != 0 {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := conn.ReadFromUDP(buf)
			var got wire.Message
			if err != nil || got.Unmarshal(buf[:n]) != nil || got.Seq != up.LastSeq {
				t.Fatalf("position %d: pack not acknowledged: %+v (%v)", pos, got, err)
			}
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); srv.misrouteDrops.Value() == drops; {
			if time.Now().After(deadline) {
				t.Fatal("head: misroute_drops never moved")
			}
			time.Sleep(time.Millisecond)
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, _, err := conn.ReadFromUDP(buf); err == nil {
			t.Errorf("head: %d bytes sent to the pack's requester", n)
		}
		if _, _, ok := srv.State(up.Key); ok || srv.RelaySeen() {
			t.Errorf("head: pack applied (flow installed %v, relay seen %v)", ok, srv.RelaySeen())
		}
	}
}

// TestUDPSetNextRelinks pins runtime chain rewiring: a server started
// as a tail begins relaying after SetNextAddr, and unlinking makes it
// ack directly again.
func TestUDPSetNextRelinks(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second})
	a := servers[0]
	b, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = b.Serve() }()
	t.Cleanup(func() { b.Close() })

	if err := a.SetNextAddr(b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if a.NextAddr() == "" {
		t.Fatal("NextAddr empty after relink")
	}
	c, err := DialUDP(a.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: udpKey()}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 1, Vals: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	// The write must have traveled a→b: b acked it, and holds the state.
	waitState := func(s *UDPServer, seq uint64) {
		deadline := time.Now().Add(time.Second)
		for {
			_, got, ok := s.State(udpKey())
			if ok && got >= seq {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never reached seq %d", s.Addr(), seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitState(b, 1)

	if err := a.SetNextAddr(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: udpKey(), Seq: 2, Vals: []uint64{5}}); err != nil {
		t.Fatal(err)
	}
	waitState(a, 2)
	if _, seq, _ := b.State(udpKey()); seq != 1 {
		t.Fatalf("unlinked successor advanced to %d", seq)
	}
}

// TestUDPExportInstallState pins the rejoin bulk-copy path: a replace
// install mirrors the source exactly (digests agree), and a delta merge
// never regresses a flow the target already advanced past.
func TestUDPExportInstallState(t *testing.T) {
	servers := startUDPChain(t, 1, Config{LeasePeriod: time.Second})
	src := servers[0]
	c, err := DialUDP(src.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := []packet.FiveTuple{udpKey(), {Src: packet.MakeAddr(10, 0, 0, 9), Dst: packet.MakeAddr(10, 0, 0, 2), SrcPort: 9, DstPort: 2, Proto: packet.ProtoUDP}}
	for i, k := range keys {
		if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: k}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: k, Seq: uint64(i + 1), Vals: []uint64{uint64(10 + i)}}); err != nil {
			t.Fatal(err)
		}
	}

	dst, err := NewUDPServer("127.0.0.1:0", "", Config{LeasePeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = dst.Serve() }()
	t.Cleanup(func() { dst.Close() })

	ups := src.ExportState()
	if n := dst.InstallState(ups, true); n != len(ups) {
		t.Fatalf("installed %d of %d", n, len(ups))
	}
	if src.Digest() != dst.Digest() {
		t.Fatalf("digests diverge after replace install: %x vs %x", src.Digest(), dst.Digest())
	}

	// Advance one flow on dst past src, then delta-merge src's export:
	// the fresher flow must survive.
	dst.InstallState([]Update{{Key: keys[0], Vals: []uint64{99}, LastSeq: 50, Owner: 1, Exists: true}}, false)
	dst.InstallState(ups, false)
	vals, seq, ok := dst.State(keys[0])
	if !ok || seq != 50 || vals[0] != 99 {
		t.Fatalf("delta merge regressed flow: vals=%v seq=%d ok=%v", vals, seq, ok)
	}
}
