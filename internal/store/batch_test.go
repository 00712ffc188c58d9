package store

import (
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// A batched commit touching the same flow repeatedly must propagate one
// chain update per flow — the last write — at the flow's first position
// in the batch.
func TestProcessBatchCoalescesPerFlow(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	s.Process(0, leaseNew(1, tkey(1)))
	s.Process(0, leaseNew(1, tkey(2)))
	batch := []*wire.Message{
		replMsg(1, tkey(1), 1, 10),
		replMsg(1, tkey(2), 1, 100),
		replMsg(1, tkey(1), 2, 20),
		replMsg(1, tkey(1), 3, 30),
	}
	outs, ups := s.ProcessBatch(1, batch)
	if len(outs) != 4 {
		t.Fatalf("outs = %d, want one ack per message", len(outs))
	}
	if len(ups) != 2 {
		t.Fatalf("ups = %d, want one coalesced update per flow", len(ups))
	}
	// Stable order: tkey(1) first (first occurrence), carrying its LAST write.
	if ups[0].Key != tkey(1) || ups[0].LastSeq != 3 || ups[0].Vals[0] != 30 {
		t.Errorf("ups[0] = %+v", ups[0])
	}
	if ups[1].Key != tkey(2) || ups[1].LastSeq != 1 || ups[1].Vals[0] != 100 {
		t.Errorf("ups[1] = %+v", ups[1])
	}
	if s.Stats.CoalescedUps != 2 {
		t.Errorf("CoalescedUps = %d, want 2", s.Stats.CoalescedUps)
	}
	// A replica applying only the coalesced updates converges to the
	// head's final state.
	tail := NewShard(Config{LeasePeriod: time.Second})
	for _, up := range ups {
		tail.Apply(up)
	}
	if vals, seq, ok := tail.State(tkey(1)); !ok || seq != 3 || vals[0] != 30 {
		t.Errorf("tail state = %v seq=%d ok=%v", vals, seq, ok)
	}
}

// Snapshot slot updates each carry distinct slots of an epoch's image
// and must never be collapsed, even for the same flow. The shard's flow
// index is empty again after each batch.
func TestCoalesceUpdatesKeepsSnapshots(t *testing.T) {
	k := tkey(1)
	ups := []Update{
		{Key: k, HasSnap: true, SnapSlot: 0, SnapVals: []uint64{1}},
		{Key: k, LastSeq: 1, Vals: []uint64{10}},
		{Key: k, HasSnap: true, SnapSlot: 1, SnapVals: []uint64{2}},
		{Key: k, LastSeq: 2, Vals: []uint64{20}},
	}
	idx := map[packet.FiveTuple]int{}
	out := coalesce(ups, idx)
	if len(idx) != 0 {
		t.Errorf("%d flows left in the index after the batch", len(idx))
	}
	// A stale index would put this batch's write at the last one's slot.
	if next := coalesce([]Update{{Key: tkey(2)}, {Key: k, LastSeq: 3}}, idx); len(next) != 2 || next[1].LastSeq != 3 {
		t.Errorf("next batch coalesced to %+v", next)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3 (two snaps + one coalesced write)", len(out))
	}
	if !out[0].HasSnap || out[0].SnapSlot != 0 {
		t.Errorf("out[0] = %+v", out[0])
	}
	if out[1].HasSnap || out[1].LastSeq != 2 || out[1].Vals[0] != 20 {
		t.Errorf("out[1] = %+v", out[1])
	}
	if !out[2].HasSnap || out[2].SnapSlot != 1 {
		t.Errorf("out[2] = %+v", out[2])
	}
}

func TestProcessBatchSingleDelegates(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	s.Process(0, leaseNew(1, tkey(1)))
	outs, ups := s.ProcessBatch(1, []*wire.Message{replMsg(1, tkey(1), 1, 5)})
	if len(outs) != 1 || len(ups) != 1 || s.Stats.CoalescedUps != 0 {
		t.Errorf("outs=%d ups=%d coalesced=%d", len(outs), len(ups), s.Stats.CoalescedUps)
	}
}

func leaseNewPB(sw int, key packet.FiveTuple, pktSeq uint64) *wire.Message {
	pb := packet.NewTCP(key.Src, key.Dst, key.SrcPort, key.DstPort, packet.FlagACK, 0)
	pb.Seq = pktSeq
	return &wire.Message{Type: wire.MsgLeaseNew, Key: key, SwitchID: sw, Piggyback: pb}
}

// A retransmitted lease request (same switch, same buffered packet)
// replaces its older queue entry; requests buffering DIFFERENT packets
// are the §5.1 network-side packet buffer and must all be preserved.
func TestWaitingQueueDedupesRetransmissionsOnly(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	s.Process(0, leaseNew(1, tkey(1)))
	s.Process(1, leaseNewPB(2, tkey(1), 7))
	s.Process(2, leaseNewPB(2, tkey(1), 7)) // retransmission: dedupe
	s.Process(3, leaseNewPB(2, tkey(1), 8)) // distinct packet: keep
	if s.Stats.WaitDeduped != 1 {
		t.Errorf("WaitDeduped = %d, want 1", s.Stats.WaitDeduped)
	}
	if s.Stats.LeaseQueued != 2 {
		t.Errorf("LeaseQueued = %d, want 2", s.Stats.LeaseQueued)
	}
	outs, _ := s.Flush(2 * sec)
	if len(outs) != 2 {
		t.Fatalf("flush released %d grants, want 2 (one per buffered packet)", len(outs))
	}
	if outs[0].Msg.Piggyback.Seq != 7 || outs[1].Msg.Piggyback.Seq != 8 {
		t.Errorf("piggyback seqs = %d, %d", outs[0].Msg.Piggyback.Seq, outs[1].Msg.Piggyback.Seq)
	}
}

// Bare retransmissions (no piggyback at all) also dedupe.
func TestWaitingQueueDedupesBareRetransmissions(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	s.Process(0, leaseNew(1, tkey(1)))
	s.Process(1, leaseNew(2, tkey(1)))
	s.Process(2, leaseNew(2, tkey(1)))
	if s.Stats.WaitDeduped != 1 || s.Stats.LeaseQueued != 1 {
		t.Errorf("deduped=%d queued=%d", s.Stats.WaitDeduped, s.Stats.LeaseQueued)
	}
}

// The waiting queue is bounded: requests beyond MaxWaiting are shed and
// counted, never queued.
func TestWaitingQueueCapSheds(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second, MaxWaiting: 3})
	s.Process(0, leaseNew(1, tkey(1)))
	for i := uint64(0); i < 5; i++ {
		s.Process(1, leaseNewPB(2, tkey(1), i))
	}
	if s.Stats.LeaseQueued != 3 {
		t.Errorf("LeaseQueued = %d, want 3", s.Stats.LeaseQueued)
	}
	if s.Stats.WaitShed != 2 {
		t.Errorf("WaitShed = %d, want 2", s.Stats.WaitShed)
	}
	outs, _ := s.Flush(2 * sec)
	if len(outs) != 3 {
		t.Errorf("flush released %d grants, want 3", len(outs))
	}
}

func TestWaitingQueueDefaultCap(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second})
	s.Process(0, leaseNew(1, tkey(1)))
	for i := uint64(0); i < DefaultMaxWaiting+10; i++ {
		s.Process(1, leaseNewPB(2, tkey(1), i))
	}
	if s.Stats.WaitShed != 10 {
		t.Errorf("WaitShed = %d, want 10", s.Stats.WaitShed)
	}
}

// Flush must release expired-lease grants in sorted five-tuple order
// regardless of arrival (and hence map-insertion) order: the grant order
// decides outputs, chain updates, and trace events, so identical-seed
// runs would otherwise diverge byte-for-byte.
func TestFlushGrantsSortedKeyOrder(t *testing.T) {
	for _, order := range [][]byte{{5, 1, 3}, {3, 5, 1}, {1, 3, 5}} {
		s := NewShard(Config{LeasePeriod: time.Second})
		for _, n := range order {
			s.Process(0, leaseNew(1, tkey(n)))
		}
		for _, n := range order {
			s.Process(1, leaseNew(2, tkey(n)))
		}
		outs, _ := s.Flush(2 * sec)
		if len(outs) != 3 {
			t.Fatalf("order %v: flush outs = %d", order, len(outs))
		}
		for i, want := range []byte{1, 3, 5} {
			if outs[i].Msg.Key != tkey(want) {
				t.Errorf("order %v: outs[%d].Key = %v, want tkey(%d)",
					order, i, outs[i].Msg.Key, want)
			}
		}
	}
}

// The snapshot epoch counter wraps at 2^32-1; serial-number comparison
// must treat the post-wrap epoch 0 as newer than 0xFFFFFFFF, and a
// pre-wrap straggler as stale.
func TestSnapshotEpochWraparound(t *testing.T) {
	s := NewShard(Config{LeasePeriod: time.Second, SnapshotSlots: 1})
	snap := func(epoch uint32, val uint64) {
		s.Process(0, &wire.Message{Type: wire.MsgSnapshot, Key: tkey(1),
			SwitchID: 1, Epoch: epoch, Slot: 0, Vals: []uint64{val}})
	}
	snap(0xFFFFFFFF, 1)
	if img, _ := s.LastSnapshot(tkey(1)); img == nil || img[0] != 1 {
		t.Fatalf("pre-wrap image = %v", img)
	}
	// Post-wrap epoch 0 must supersede 0xFFFFFFFF.
	snap(0, 2)
	if img, _ := s.LastSnapshot(tkey(1)); img[0] != 2 {
		t.Errorf("post-wrap image = %v, want [2]", img)
	}
	// A straggler from just before the wrap is stale, not newer.
	snap(0xFFFFFFF0, 3)
	if img, _ := s.LastSnapshot(tkey(1)); img[0] != 2 {
		t.Errorf("stale pre-wrap epoch overwrote image: %v", img)
	}
	// Progress continues normally after the wrap.
	snap(1, 4)
	if img, _ := s.LastSnapshot(tkey(1)); img[0] != 4 {
		t.Errorf("post-wrap progress image = %v, want [4]", img)
	}
}

func TestEpochNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{0, 0, false},
		{0, 0xFFFFFFFF, true},  // wrap: 0 follows max
		{0xFFFFFFFF, 0, false}, // and not vice versa
		{0x80000000, 0, false}, // exactly half the window: ambiguous, not newer
		{5, 0xFFFFFFF0, true},  // shortly after a wrap
		{0xFFFFFFF0, 5, false}, // straggler from before it
		{0x7FFFFFFF, 0, true},  // just under half the window
	}
	for _, c := range cases {
		if got := epochNewer(c.a, c.b); got != c.want {
			t.Errorf("epochNewer(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
