package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/wire"
)

// TestBatchIOByteEquivalence proves the batched-syscall IO layer and the
// portable fallback move identical bytes: every (writer, reader)
// pairing across the two implementations delivers the same seeded
// datagram multiset with the correct source address. On platforms
// without recvmmsg/sendmmsg both sides resolve to the portable path and
// the test degenerates to a self-check.
func TestBatchIOByteEquivalence(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(*net.UDPConn) (batchReader, batchWriter, string)
	}{
		{"platform", newPlatformIO},
		{"portable", newPortableIO},
	}
	for _, wk := range kinds {
		for _, rk := range kinds {
			t.Run(wk.name+"_to_"+rk.name, func(t *testing.T) {
				src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				dst, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Close()
				_, w, _ := wk.mk(src)
				r, _, _ := rk.mk(dst)

				rng := rand.New(rand.NewSource(7))
				const dgrams = 96
				sent := make([]string, 0, dgrams)
				slots := make([]txSlot, 0, 16)
				to := localAddrPort(dst)
				for i := 0; i < dgrams; i++ {
					b := make([]byte, 1+rng.Intn(1200))
					rng.Read(b)
					sent = append(sent, string(b))
					slots = append(slots, txSlot{buf: b, addr: to})
					if len(slots) == cap(slots) || i == dgrams-1 {
						if err := w.WriteBatch(slots); err != nil {
							t.Fatalf("WriteBatch: %v", err)
						}
						slots = slots[:0]
					}
				}

				dst.SetReadDeadline(time.Now().Add(10 * time.Second))
				rx := make([]rxSlot, 32)
				for i := range rx {
					b := make([]byte, udpBufSize)
					rx[i].buf = &b
				}
				got := make([]string, 0, dgrams)
				srcPort := src.LocalAddr().(*net.UDPAddr).Port
				for len(got) < dgrams {
					n, err := r.ReadBatch(rx)
					if err != nil {
						t.Fatalf("ReadBatch after %d/%d dgrams: %v", len(got), dgrams, err)
					}
					for i := 0; i < n; i++ {
						got = append(got, string((*rx[i].buf)[:rx[i].n]))
						if int(rx[i].addr.Port()) != srcPort {
							t.Fatalf("datagram %d: source port %d, want %d", i, rx[i].addr.Port(), srcPort)
						}
					}
				}
				sort.Strings(sent)
				sort.Strings(got)
				for i := range sent {
					if sent[i] != got[i] {
						t.Fatalf("datagram multiset diverged at %d: sent %d bytes, got %d bytes",
							i, len(sent[i]), len(got[i]))
					}
				}
			})
		}
	}
}

// TestBatchIONoAllocs: a batched read or write allocates nothing — the
// server makes one of each per commit group. It runs on whichever
// implementation the build selects (CI runs both tags).
func TestBatchIONoAllocs(t *testing.T) {
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	_, w, name := newPlatformIO(src)
	r, _, _ := newPlatformIO(dst)
	dst.SetReadDeadline(time.Now().Add(10 * time.Second))

	const runs = 50
	tx := []txSlot{{buf: []byte("a"), addr: localAddrPort(dst)}, {buf: []byte("b"), addr: localAddrPort(dst)}}
	if n := testing.AllocsPerRun(runs, func() {
		if err := w.WriteBatch(tx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%s WriteBatch: %v allocs per call, want 0", name, n)
	}
	// Every datagram is already queued, so no read parks; each call has at
	// least one to return.
	b := make([]byte, udpBufSize)
	rx := []rxSlot{{buf: &b}}
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := r.ReadBatch(rx); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%s ReadBatch: %v allocs per call, want 0", name, n)
	}
}

// TestUDPDigestShardCountInvariant pins the multi-shard Digest contract:
// servers holding the same flows digest identically whatever their
// -shards count, because the digest folds the union of flows in global
// key order and never sees the flow→shard partition. The batched sweep
// also spans shards on the multi-shard servers, so the same run
// exercises the receiver's frame-sliced batch split end to end — a
// split that lost or corrupted a member would leave the digests (and
// the per-flow state checks) disagreeing.
func TestUDPDigestShardCountInvariant(t *testing.T) {
	const flows, writes = 12, 7
	var digests []uint64
	for _, shards := range []int{1, 2, 5} {
		srv := sweepServer(t, WithUDPShards(shards))
		res, err := RunSweep(SweepConfig{
			Addr: srv.Addr().String(), Flows: flows, Writes: writes,
			Batch: 4, Timeout: 30 * time.Second,
		})
		if err != nil || !res.Complete {
			t.Fatalf("%d shards: sweep err=%v res=%+v", shards, err, res)
		}
		for i := 0; i < flows; i++ {
			vals, seq, ok := srv.State(FlowKey(i))
			if !ok || seq != writes || len(vals) != 1 || vals[0] != writes {
				t.Fatalf("%d shards flow %d: vals=%v seq=%d ok=%v", shards, i, vals, seq, ok)
			}
		}
		digests = append(digests, srv.Digest())
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("digest diverged across shard counts: %016x", digests)
		}
	}
}

// serialTranscript drives a seeded serial workload against a server and
// returns the concatenated raw reply datagrams. Requests go one at a
// time, so every reply is a single frame — framing cannot differ
// between runs, making the transcript byte-comparable.
func serialTranscript(t *testing.T, addr *net.UDPAddr, flows, writes int) []byte {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, udpBufSize)
	var transcript []byte
	roundTrip := func(m *wire.Message) {
		if _, err := conn.Write(m.Marshal(nil)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("no reply to %v seq %d: %v", m.Type, m.Seq, err)
		}
		transcript = append(transcript, byte(n>>8), byte(n))
		transcript = append(transcript, buf[:n]...)
	}
	for i := 0; i < flows; i++ {
		key := FlowKey(i)
		sw := 1 + i
		roundTrip(&wire.Message{Type: wire.MsgLeaseNew, Key: key, SwitchID: sw})
		for seq := uint64(1); seq <= uint64(writes); seq++ {
			roundTrip(&wire.Message{
				Type: wire.MsgRepl, Key: key, SwitchID: sw,
				Seq: seq, Vals: []uint64{seq},
			})
		}
	}
	return transcript
}

// withPortableIO forces the portable single-datagram syscall path even
// where the batched recvmmsg/sendmmsg one is available, so one process
// can compare the two.
func withPortableIO() UDPOption { return func(o *UDPOptions) { o.forcePortable = true } }

// TestServerIOPathEquivalence runs the same seeded workload against a
// platform-IO server and a forced-portable server and asserts the wire
// traffic is byte-identical and the shard digests match: switching
// between recvmmsg/sendmmsg and the fallback must be invisible to the
// protocol.
func TestServerIOPathEquivalence(t *testing.T) {
	const flows, writes = 8, 25
	mk := func(opts ...UDPOption) *UDPServer {
		return sweepServer(t, append([]UDPOption{WithUDPShards(2)}, opts...)...)
	}
	platform := mk()
	portable := mk(withPortableIO())
	t.Logf("io paths: %s vs %s", platform.IOPath(), portable.IOPath())

	tp := serialTranscript(t, platform.Addr().(*net.UDPAddr), flows, writes)
	tf := serialTranscript(t, portable.Addr().(*net.UDPAddr), flows, writes)
	if !bytes.Equal(tp, tf) {
		t.Fatalf("wire transcripts differ: %d vs %d bytes (io %s vs %s)",
			len(tp), len(tf), platform.IOPath(), portable.IOPath())
	}
	if dp, df := platform.Digest(), portable.Digest(); dp != df {
		t.Fatalf("digests differ: %016x (%s) vs %016x (%s)",
			dp, platform.IOPath(), df, portable.IOPath())
	}
	for i := 0; i < flows; i++ {
		v1, s1, ok1 := platform.State(FlowKey(i))
		v2, s2, ok2 := portable.State(FlowKey(i))
		if !ok1 || !ok2 || s1 != s2 || fmt.Sprint(v1) != fmt.Sprint(v2) {
			t.Fatalf("flow %d state differs: %v/%d/%v vs %v/%d/%v", i, v1, s1, ok1, v2, s2, ok2)
		}
	}
}

// equivStep is one datagram of the equivalence script: msgs sent by
// switch sw as a plain frame (one message) or a batch.
type equivStep struct {
	name string
	sw   int
	msgs []*wire.Message
}

// equivScript builds the seeded request script both transports run. It
// returns fresh messages on every call — transports stamp and retain
// them — and the flows it touches.
func equivScript(seed int64) (steps []equivStep, keys []packet.FiveTuple) {
	rng := rand.New(rand.NewSource(seed))
	val := func() uint64 { return uint64(rng.Intn(1 << 20)) }
	k := FlowKey(rng.Intn(1000))
	keys = append(keys, k)
	step := func(name string, sw int, msgs ...*wire.Message) {
		steps = append(steps, equivStep{name, sw, msgs})
	}
	step("lease", 1, leaseNew(1, k))
	step("write", 1, replMsg(1, k, 1, val(), val()))
	step("conflict: non-owner write", 2, replMsg(2, k, 2, val()))
	step("expiry: queued lease granted to the other switch", 2, leaseNew(2, k))
	step("conflict: old owner renews", 1, &wire.Message{Type: wire.MsgLeaseRenew, Key: k})
	step("renew", 2, &wire.Message{Type: wire.MsgLeaseRenew, Key: k})
	v := val()
	step("write after takeover", 2, replMsg(2, k, 2, v))
	step("duplicate", 2, replMsg(2, k, 2, v))
	step("gap", 2, replMsg(2, k, 5, val()))
	var batch []*wire.Message
	for i := 0; i < 4; i++ { // 4 flows x (lease + 3 writes) = one 16-batch
		bk := FlowKey(1000 + rng.Intn(1000)*4 + i)
		keys = append(keys, bk)
		batch = append(batch, leaseNew(2, bk))
		for seq := uint64(1); seq <= 3; seq++ {
			batch = append(batch, replMsg(2, bk, seq, val()))
		}
	}
	step("16-batch", 2, batch...)
	return steps, keys
}

// equivReplica is what the two transports must agree on, per replica.
type equivReplica struct {
	Flows  []string // per key: vals, lastSeq, ok, owner
	Digest uint64
}

func ackSig(m *wire.Message) string {
	return fmt.Sprintf("%v %v seq=%d vals=%v new=%v", m.Type, m.Key, m.Seq, m.Vals, m.NewFlow)
}

// TestServerUDPEquivalence drives one seeded request script — lease,
// write, conflict, expiry, renew, duplicate, gap, 16-batch — through a
// three-server simulator chain and a three-server loopback UDP chain and
// requires the same acknowledgment stream and the same state, owner and
// digest on every replica. The two transports share the Shard core and
// the chain protocol (head decides, successors Apply, tail acks); this
// is the test that they do.
func TestServerUDPEquivalence(t *testing.T) {
	const seed = 21
	cfg := Config{LeasePeriod: 400 * time.Millisecond}

	// Simulator chain: two switches and three servers on a hub.
	sim := netsim.New(1)
	h := &hub{ports: make(map[packet.Addr]*netsim.Port)}
	sws := map[int]*fakeSwitch{}
	for id := 1; id <= 2; id++ {
		sw := &fakeSwitch{id: id, ip: packet.MakeAddr(10, 9, 9, byte(id))}
		_, sw.port, h.ports[sw.ip] = netsim.Connect(sim, sw, h, netsim.LinkConfig{Delay: time.Microsecond})
		sws[id] = sw
	}
	var simSrv []*Server
	for i := 0; i < 3; i++ {
		ip := packet.MakeAddr(10, 8, 0, byte(i+1))
		srv := NewServer(sim, fmt.Sprintf("s%d", i), ip, NewShard(cfg), time.Microsecond)
		srv.SwitchAddr = func(id int) packet.Addr { return sws[id].ip }
		var sp *netsim.Port
		_, sp, h.ports[ip] = netsim.Connect(sim, srv, h, netsim.LinkConfig{Delay: time.Microsecond})
		srv.SetPort(sp)
		simSrv = append(simSrv, srv)
	}
	simSrv[0].SetNext(simSrv[1])
	simSrv[1].SetNext(simSrv[2])
	var simAcks []string
	steps, keys := equivScript(seed)
	for _, st := range steps {
		sw := sws[st.sw]
		from := len(sw.got)
		if len(st.msgs) == 1 {
			sw.send(st.msgs[0], simSrv[0].IP)
		} else {
			for _, m := range st.msgs {
				m.SwitchID = sw.id
			}
			b := &wire.Batch{Msgs: st.msgs}
			sw.port.Send(&netsim.Frame{Src: sw.ip, Dst: simSrv[0].IP, Size: b.WireLen(), Msg: b,
				Flow: packet.FiveTuple{Src: sw.ip, Dst: simSrv[0].IP, SrcPort: wire.SwitchPort,
					DstPort: wire.StorePort, Proto: packet.ProtoUDP}})
		}
		sim.Run() // to quiescence: through the lease-expiry wake when a request queued
		for _, m := range sw.got[from:] {
			simAcks = append(simAcks, st.name+": "+ackSig(m))
		}
	}
	var simReplicas []equivReplica
	for _, srv := range simSrv {
		r := equivReplica{Digest: srv.Shard().Digest()}
		for _, k := range keys {
			vals, seq, ok := srv.Shard().State(k)
			r.Flows = append(r.Flows, fmt.Sprint(vals, seq, ok, srv.Shard().Owner(k, int64(sim.Now()))))
		}
		simReplicas = append(simReplicas, r)
	}

	// Loopback chain: the same script over real sockets and wall time.
	udpSrv := startUDPChain(t, 3, cfg)
	clients := map[int]*UDPClient{}
	for id := 1; id <= 2; id++ {
		c, err := DialUDP(udpSrv[0].Addr().String(), id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[id] = c
	}
	var udpAcks []string
	steps, _ = equivScript(seed)
	for _, st := range steps {
		acks, err := clients[st.sw].RequestBatch(st.msgs)
		if err != nil {
			t.Fatalf("udp %s: %v", st.name, err)
		}
		for _, m := range acks {
			udpAcks = append(udpAcks, st.name+": "+ackSig(m))
		}
	}
	var udpReplicas []equivReplica
	for _, srv := range udpSrv {
		r := equivReplica{Digest: srv.Digest()}
		for _, k := range keys {
			vals, seq, ok := srv.State(k)
			r.Flows = append(r.Flows, fmt.Sprint(vals, seq, ok, udpOwner(srv, k)))
		}
		udpReplicas = append(udpReplicas, r)
	}

	if !reflect.DeepEqual(simAcks, udpAcks) {
		t.Errorf("ack streams differ:\nsim: %s\nudp: %s", strings.Join(simAcks, "\n     "), strings.Join(udpAcks, "\n     "))
	}
	if len(simAcks) != 9+16 {
		t.Errorf("script produced %d acks, want 25: %v", len(simAcks), simAcks)
	}
	for i := range simReplicas {
		if !reflect.DeepEqual(simReplicas[i], udpReplicas[i]) {
			t.Errorf("replica %d differs:\nsim: %+v\nudp: %+v", i, simReplicas[i], udpReplicas[i])
		}
		if simReplicas[i].Digest != simReplicas[0].Digest {
			t.Errorf("sim replica %d digest differs from the head's", i)
		}
	}
}
