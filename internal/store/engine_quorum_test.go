package store

import (
	"strings"
	"testing"
	"time"

	"redplane/internal/durable"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/repl"
	"redplane/internal/wire"
)

// buildQuorumNet wires sw -- hub -- three quorum-engine servers: group
// wiring and view 1 installed by hand, the way Cluster.SetView would.
func buildQuorumNet(t *testing.T, sim *netsim.Sim, delay, service time.Duration) (*fakeSwitch, []*Server) {
	t.Helper()
	h := &hub{ports: make(map[packet.Addr]*netsim.Port)}
	sw := &fakeSwitch{id: 1, ip: packet.MakeAddr(10, 9, 9, 1)}
	_, swPort, hubSwPort := netsim.Connect(sim, sw, h, netsim.LinkConfig{Delay: delay})
	sw.port = swPort
	h.ports[sw.ip] = hubSwPort

	var servers []*Server
	for i := 0; i < 3; i++ {
		ip := packet.MakeAddr(10, 8, 0, byte(i+1))
		srv := NewServer(sim, "q", ip, NewShard(Config{LeasePeriod: time.Second}), service,
			WithEngine(repl.EngineQuorum))
		srv.SwitchAddr = func(int) packet.Addr { return sw.ip }
		_, sp, hp := netsim.Connect(sim, srv, h, netsim.LinkConfig{Delay: delay})
		srv.SetPort(sp)
		h.ports[ip] = hp
		servers = append(servers, srv)
	}
	for i, srv := range servers {
		srv.SetGroup(servers, i)
		srv.SetView(1, true)
	}
	return sw, servers
}

func TestQuorumCommitReleasesOnMajority(t *testing.T) {
	sim := netsim.New(1)
	sw, servers := buildQuorumNet(t, sim, 2*time.Microsecond, time.Microsecond)
	key := tkey(1)

	sw.send(leaseNew(1, key), servers[0].IP)
	sim.Run()
	if len(sw.got) != 1 || sw.got[0].Type != wire.MsgLeaseNewAck {
		t.Fatalf("got %d msgs", len(sw.got))
	}
	sw.send(replMsg(1, key, 1, 42), servers[0].IP)
	sim.Run()
	if len(sw.got) != 2 || sw.got[1].Type != wire.MsgReplAck {
		t.Fatalf("no repl ack")
	}
	// Appends broadcast to every follower, so after quiescence all three
	// replicas converge (majority for the ack, all for the state).
	for i, srv := range servers {
		vals, seq, ok := srv.Shard().State(key)
		if !ok || seq != 1 || vals[0] != 42 {
			t.Errorf("replica %d state = %v seq=%d ok=%v", i, vals, seq, ok)
		}
	}
}

func TestQuorumFollowersFenceDirectRequests(t *testing.T) {
	sim := netsim.New(1)
	sw, servers := buildQuorumNet(t, sim, time.Microsecond, time.Microsecond)

	before := servers[1].Stats().StaleViewDrops
	sw.send(leaseNew(1, tkey(2)), servers[1].IP)
	sim.Run()
	if got := servers[1].Stats().StaleViewDrops; got != before+1 {
		t.Errorf("follower served a direct request (drops=%d, want %d)", got, before+1)
	}
	if len(sw.got) != 0 {
		t.Errorf("follower released %d acks", len(sw.got))
	}
}

func TestQuorumCommitsWithOneFollowerDown(t *testing.T) {
	sim := netsim.New(1)
	sw, servers := buildQuorumNet(t, sim, 2*time.Microsecond, time.Microsecond)
	key := tkey(3)

	sw.send(leaseNew(1, key), servers[0].IP)
	sim.Run()
	servers[2].Fail()

	// Majority is leader + the surviving follower: the write still acks.
	sw.send(replMsg(1, key, 1, 7), servers[0].IP)
	sim.Run()
	if len(sw.got) != 2 {
		t.Fatalf("acks with follower down = %d, want 2", len(sw.got))
	}

	// The dead follower missed the append. The next write carries the
	// flow's full post-state, so once it recovers, one more replicated
	// write re-converges it.
	servers[2].Recover()
	sw.send(replMsg(1, key, 2, 9), servers[0].IP)
	sim.Run()
	if len(sw.got) != 3 {
		t.Fatalf("acks after recovery = %d, want 3", len(sw.got))
	}
	d0 := servers[0].Shard().Digest()
	for i, srv := range servers[1:] {
		if srv.Shard().Digest() != d0 {
			t.Errorf("replica %d digest diverged after recovery", i+1)
		}
	}
}

// buildDurableQuorum adds a MemBackend durability layer to every quorum
// server, mirroring buildDurableChain.
func buildDurableQuorum(t *testing.T, sim *netsim.Sim, delay, service time.Duration) (*fakeSwitch, []*Server, []*durable.MemBackend) {
	t.Helper()
	sw, servers := buildQuorumNet(t, sim, delay, service)
	var bes []*durable.MemBackend
	for _, srv := range servers {
		be := durable.NewMemBackend()
		if err := srv.EnableDurability(be, DurabilityConfig{Enabled: true}); err != nil {
			t.Fatal(err)
		}
		bes = append(bes, be)
	}
	return sw, servers, bes
}

// TestQuorumHeadColdFailMidBatch is the quorum twin of the chain's
// TestHeadColdFailMidBatchCommit: a pinned schedule where the leader
// dies cold mid group-commit, a new leader is elected, the switch
// retransmits, and the old leader later rejoins by cloning the new
// leader (the quorum resync source).
func TestQuorumHeadColdFailMidBatch(t *testing.T) {
	sim := netsim.New(1)
	sw, servers, _ := buildDurableQuorum(t, sim, 2*time.Microsecond, time.Microsecond)
	k1, k2 := tkey(1), tkey(2)

	sw.send(leaseNew(1, k1), servers[0].IP)
	sw.send(leaseNew(1, k2), servers[0].IP)
	sim.Run()
	if len(sw.got) != 2 {
		t.Fatalf("lease acks = %d", len(sw.got))
	}

	// A batch of two writes reaches the leader, which appends the entry
	// and stages the updates behind its group-commit fsync (+20 µs). The
	// leader dies cold before the fsync fires: the entry was never
	// broadcast, nothing was acked, and Crashed() dropped the pending log.
	sw.sendBatch([]*wire.Message{replMsg(1, k1, 1, 100), replMsg(1, k2, 1, 200)}, servers[0].IP)
	sim.After(10*time.Microsecond, func() { servers[0].FailCold() })
	sim.Run()
	if len(sw.got) != 2 {
		t.Fatalf("acks after mid-commit crash = %d, want no new ones", len(sw.got))
	}
	if _, seq, _ := servers[1].Shard().State(k1); seq != 0 {
		t.Fatal("unfsynced batch leaked to a follower")
	}

	// The coordinator's splice: view 2 = {1, 2}, replica 1 promoted to
	// leader. The switch retransmits the whole batch to it. Majority in
	// the two-member view is both members.
	g2 := []*Server{servers[1], servers[2]}
	servers[0].SetGroup(nil, -1)
	servers[0].SetView(2, false)
	servers[1].SetGroup(g2, 0)
	servers[1].SetView(2, true)
	servers[2].SetGroup(g2, 1)
	servers[2].SetView(2, true)
	sw.sendBatch([]*wire.Message{replMsg(1, k1, 1, 100), replMsg(1, k2, 1, 200)}, servers[1].IP)
	sim.Run()
	if len(sw.got) != 4 {
		t.Fatalf("acks after retransmit = %d, want 4", len(sw.got))
	}
	if servers[1].Shard().Digest() != servers[2].Shard().Digest() {
		t.Fatal("view-2 group diverged")
	}

	// The old leader recovers cold from its own durable state: the leases
	// it synced are back, the unfsynced batch is not (never acked).
	servers[0].Recover()
	if _, seq, _ := servers[0].Shard().State(k1); seq != 0 {
		t.Fatal("old leader resurrected an unfsynced write")
	}

	// Rejoin: clone from the quorum resync source — the current LEADER,
	// not the tail — agree on digests, install view 3 = {1, 2, 0}.
	if n := servers[0].Shard().CloneFrom(servers[1].Shard()); n == 0 {
		t.Fatal("clone copied nothing")
	}
	if servers[0].Shard().Digest() != servers[1].Shard().Digest() {
		t.Fatal("digest disagreement after clone")
	}
	g3 := []*Server{servers[1], servers[2], servers[0]}
	for i, srv := range g3 {
		srv.SetGroup(g3, i)
		srv.SetView(3, true)
	}
	if err := servers[0].Durability().ForceCheckpoint(int64(sim.Now())); err != nil {
		t.Fatal(err)
	}

	// No acked write lost, and a further write flows through the full
	// three-member group again.
	for i, srv := range servers {
		if vals, seq, ok := srv.Shard().State(k1); !ok || seq != 1 || vals[0] != 100 {
			t.Errorf("replica %d lost acked write k1: vals=%v seq=%d ok=%v", i, vals, seq, ok)
		}
	}
	sw.send(replMsg(1, k2, 2, 300), servers[1].IP)
	sim.Run()
	if len(sw.got) != 5 {
		t.Fatalf("acks after rejoin write = %d, want 5", len(sw.got))
	}
	d0 := servers[0].Shard().Digest()
	if servers[1].Shard().Digest() != d0 || servers[2].Shard().Digest() != d0 {
		t.Fatal("rejoined group diverged")
	}
}

// TestQuorumDeferredAckFencedAcrossViewChange pins the fence on a
// follower acknowledgment deferred behind its fsync across a leader
// failover: the staged ack belongs to the OLD view's log and must not
// fire into the new leader's log, where its sequence number collides
// with an unrelated in-flight entry. (Regression: the ack used to be
// stamped with whatever view held at fsync time, so it passed the new
// leader's fence and completed a "majority" the group never had —
// releasing one write held only by the leader and dropping its
// sibling entry unacknowledged.)
func TestQuorumDeferredAckFencedAcrossViewChange(t *testing.T) {
	sim := netsim.New(1)
	sw, servers, _ := buildDurableQuorum(t, sim, 2*time.Microsecond, time.Microsecond)
	key := tkey(7)

	sw.send(leaseNew(1, key), servers[0].IP)
	sim.Run()
	if len(sw.got) != 1 {
		t.Fatalf("lease acks = %d", len(sw.got))
	}

	// W1 reaches the leader, which appends it (seq 2 of its log — the
	// lease grant was seq 1), fsyncs, and broadcasts. Stop the clock
	// once the followers have applied the append and STAGED their acks
	// behind their own group-commit fsyncs (~+30 µs), but before those
	// fsyncs fire (~+50 µs).
	t0 := sim.Now()
	sw.send(replMsg(1, key, 1, 100), servers[0].IP)
	sim.RunUntil(t0 + netsim.Duration(40*time.Microsecond))
	if _, seq, _ := servers[1].Shard().State(key); seq != 1 {
		t.Fatalf("follower has not applied W1 yet (seq=%d); schedule drifted", seq)
	}

	// Failover before the staged acks release: view 2 promotes replica 2
	// to leader, keeps replica 1 as a follower, splices the old leader
	// out. Replica 1 still holds the deferred ack for old-log seq 2.
	g2 := []*Server{servers[2], servers[1]}
	servers[0].SetGroup(nil, -1)
	servers[0].SetView(2, false)
	servers[2].SetGroup(g2, 0)
	servers[2].SetView(2, true)
	servers[1].SetGroup(g2, 1)
	servers[1].SetView(2, true)

	// Two writes through the new leader append as seqs 1 and 2 of ITS
	// log, each needing both members. Replica 1's stale deferred ack
	// (seq 2) fires off its fsync before its genuine acks exist: were it
	// to pass the fence, it would complete seq 2's "majority" while only
	// the leader holds the entry — W3 acked unreplicated, W2 dropped as
	// a straggler and never acknowledged at all.
	sw.send(replMsg(1, key, 2, 200), servers[2].IP)
	sw.send(replMsg(1, key, 3, 300), servers[2].IP)
	sim.Run()

	// With the stale ack fenced, both writes commit on the genuine
	// follower acknowledgments: lease + W2 + W3. (W1's acks died with
	// view 1; it was never acknowledged, so no promise is broken.)
	if len(sw.got) != 3 {
		t.Fatalf("acks = %d, want 3 (lease, W2, W3)", len(sw.got))
	}
	for i, wantSeq := range []uint64{2, 3} {
		if m := sw.got[i+1]; m.Type != wire.MsgReplAck || m.Seq != wantSeq {
			t.Errorf("ack %d = type %v seq %d, want repl ack seq %d", i+1, m.Type, m.Seq, wantSeq)
		}
	}
	if servers[1].Shard().Digest() != servers[2].Shard().Digest() {
		t.Fatal("view-2 group diverged")
	}
	if vals, seq, ok := servers[2].Shard().State(key); !ok || seq != 3 || vals[0] != 300 {
		t.Fatalf("leader state vals=%v seq=%d ok=%v", vals, seq, ok)
	}
}

func TestClusterQuorumReconcileOnViewChange(t *testing.T) {
	sim := netsim.New(1)
	c := NewCluster(sim, 1, 3, Config{LeasePeriod: time.Second}, time.Microsecond,
		func(shard, replica int) packet.Addr {
			return packet.MakeAddr(10, 8, byte(shard), byte(replica+1))
		},
		WithEngine(repl.EngineQuorum))
	if c.Engine() != repl.EngineQuorum {
		t.Fatalf("engine = %q", c.Engine())
	}
	if c.ResyncSource(0) != c.Head(0) {
		t.Fatal("quorum resync source is not the leader")
	}

	// Replica 2 misses a write the other two hold (a lost append): views
	// 1..N acked it via the majority {0, 1}.
	key := tkey(4)
	for _, r := range []int{0, 1, 2} {
		c.Server(0, r).Shard().Process(0, leaseNew(1, key))
	}
	for _, r := range []int{0, 1} {
		c.Server(0, r).Shard().Process(1, replMsg(1, key, 1, 77))
	}
	if c.ChainAgreement() == nil {
		t.Fatal("divergence not detectable before reconcile")
	}

	// Any view change reconciles: the max-seq state is copied to laggers.
	c.SetView(0, []int{0, 1, 2})
	if err := c.ChainAgreement(); err != nil {
		t.Fatalf("reconcile left divergence: %v", err)
	}
	if vals, seq, ok := c.Server(0, 2).Shard().State(key); !ok || seq != 1 || vals[0] != 77 {
		t.Errorf("lagging replica not reconciled: vals=%v seq=%d ok=%v", vals, seq, ok)
	}
}

func TestChainAgreementErrorNamesAllDivergers(t *testing.T) {
	sim := netsim.New(1)
	c := NewCluster(sim, 1, 3, Config{LeasePeriod: time.Second}, time.Microsecond,
		func(shard, replica int) packet.Addr {
			return packet.MakeAddr(10, 8, byte(shard), byte(replica+1))
		})
	// Two replicas diverge from replica 0 in different ways.
	c.Server(0, 1).Shard().Process(0, leaseNew(1, tkey(5)))
	c.Server(0, 1).Shard().Process(1, replMsg(1, tkey(5), 1, 5))
	c.Server(0, 2).Shard().Process(0, leaseNew(1, tkey(6)))
	c.Server(0, 2).Shard().Process(1, replMsg(1, tkey(6), 1, 6))
	err := c.ChainAgreement()
	if err == nil {
		t.Fatal("divergence not reported")
	}
	msg := err.Error()
	for _, want := range []string{"shard 0", "chain engine", "replica 0 digest", "replica 1 digest", "replica 2 digest"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestNewClusterDegenerateShape: a shards=0 cluster constructs without
// panicking (the engine name comes from the options, not servers[0]).
func TestNewClusterDegenerateShape(t *testing.T) {
	sim := netsim.New(1)
	c := NewCluster(sim, 0, 0, Config{LeasePeriod: time.Second}, time.Microsecond,
		func(shard, replica int) packet.Addr { return packet.Addr(0) },
		WithEngine(repl.EngineQuorum))
	if c.Engine() != repl.EngineQuorum {
		t.Fatalf("engine = %q", c.Engine())
	}
	if def := NewCluster(sim, 0, 0, Config{LeasePeriod: time.Second}, time.Microsecond,
		func(shard, replica int) packet.Addr { return packet.Addr(0) }); def.Engine() != repl.EngineChain {
		t.Fatalf("default engine = %q", def.Engine())
	}
}
