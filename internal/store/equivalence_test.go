package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

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
				to := dst.LocalAddr().(*net.UDPAddr)
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
		srv := sweepServer(t, WithUDPShards(shards), WithUDPReceivers(2))
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

// TestServerIOPathEquivalence runs the same seeded workload against a
// platform-IO server and a forced-portable server and asserts the wire
// traffic is byte-identical and the shard digests match: switching
// between recvmmsg/sendmmsg and the fallback must be invisible to the
// protocol.
func TestServerIOPathEquivalence(t *testing.T) {
	const flows, writes = 8, 25
	mk := func(opts ...UDPOption) *UDPServer {
		return sweepServer(t, append([]UDPOption{WithUDPShards(2), WithUDPReceivers(2)}, opts...)...)
	}
	platform := mk()
	portable := mk(WithUDPPortableIO())
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
