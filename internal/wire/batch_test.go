package wire

import (
	"testing"

	"redplane/internal/packet"
)

func TestBatchRoundTrip(t *testing.T) {
	pkt := packet.NewTCP(packet.MakeAddr(1, 1, 1, 1), packet.MakeAddr(2, 2, 2, 2), 5, 6, packet.FlagACK, 33)
	bt := &Batch{Msgs: []*Message{
		{Type: MsgRepl, Seq: 1, Key: key(), Vals: []uint64{7, 9}},
		{Type: MsgLeaseNew, Seq: 2, Key: key(), Piggyback: pkt, NewFlow: true},
		{Type: MsgLeaseRenew, Seq: 3, Key: key()},
	}}
	b := bt.Marshal(nil)
	if !IsBatch(b) {
		t.Fatal("marshaled batch not recognized by IsBatch")
	}
	var g Batch
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	for i, m := range g.Msgs {
		if m.Type != bt.Msgs[i].Type || m.Seq != bt.Msgs[i].Seq || m.Key != key() {
			t.Errorf("msg %d: %+v", i, m)
		}
	}
	if g.Msgs[0].Vals[1] != 9 {
		t.Errorf("vals: %v", g.Msgs[0].Vals)
	}
	if g.Msgs[1].Piggyback == nil || g.Msgs[1].Piggyback.Flow() != pkt.Flow() {
		t.Error("piggyback lost in batch")
	}
}

func TestBatchEmptyRoundTrip(t *testing.T) {
	bt := &Batch{}
	var g Batch
	if err := g.Unmarshal(bt.Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
}

// A plain message must never be mistaken for a batch: its first byte is
// the sequence number's high byte, which stays below the magic for any
// realistic per-flow counter.
func TestIsBatchRejectsPlainMessage(t *testing.T) {
	m := &Message{Type: MsgRepl, Seq: 42, Key: key(), Vals: []uint64{1}}
	if IsBatch(m.Marshal(nil)) {
		t.Error("plain message classified as batch")
	}
	if IsBatch(nil) || IsBatch([]byte{batchMagic}) {
		t.Error("short payloads classified as batch")
	}
	if IsBatch([]byte{batchMagic, batchVersion + 1, 0, 0}) {
		t.Error("unknown version classified as batch")
	}
}

func TestBatchUnmarshalMalformed(t *testing.T) {
	bt := &Batch{Msgs: []*Message{
		{Type: MsgRepl, Seq: 1, Key: key(), Vals: []uint64{1}},
		{Type: MsgRepl, Seq: 2, Key: key()},
	}}
	good := bt.Marshal(nil)
	var g Batch
	cases := map[string][]byte{
		"not a batch":        {1, 2, 3, 4},
		"truncated member":   good[:len(good)-3],
		"trailing bytes":     append(append([]byte{}, good...), 0xEE),
		"count beyond data":  {batchMagic, batchVersion, 0, 9},
		"member len overrun": {batchMagic, batchVersion, 0, 1, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if err := g.Unmarshal(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The batch's wire length charges one encapsulation for the whole
// datagram; the same messages sent separately each pay their own.
func TestBatchWireLenAmortizesEncap(t *testing.T) {
	msgs := []*Message{
		{Type: MsgRepl, Seq: 1, Key: key(), Vals: []uint64{1, 2, 3, 4}},
		{Type: MsgRepl, Seq: 2, Key: key(), Vals: []uint64{5, 6, 7, 8}},
		{Type: MsgRepl, Seq: 3, Key: key(), Vals: []uint64{9, 10, 11, 12}},
	}
	bt := &Batch{Msgs: msgs}
	separate := 0
	for _, m := range msgs {
		separate += m.WireLen()
	}
	if bt.WireLen() >= separate {
		t.Errorf("batch WireLen %d >= sum of separate %d", bt.WireLen(), separate)
	}
	if bt.WireLen() != len(bt.Marshal(nil))-BatchHeaderLen+
		(packet.EthernetLen+packet.IPv4Len+packet.UDPLen+BatchHeaderLen) {
		// WireLen = marshaled payload + one encap; spelled out so a
		// framing change that breaks the relationship fails loudly.
		t.Errorf("WireLen %d inconsistent with marshaled size %d", bt.WireLen(), len(bt.Marshal(nil)))
	}
}

// TestMemberFramesSplitEquivalence: regrouping a batch's members by
// concatenating their framed spans must be byte-identical to marshaling
// a fresh Batch of the same messages — the contract the UDP server's
// zero-re-marshal shard split relies on.
func TestMemberFramesSplitEquivalence(t *testing.T) {
	pkt := packet.NewTCP(packet.MakeAddr(1, 1, 1, 1), packet.MakeAddr(2, 2, 2, 2), 5, 6, packet.FlagACK, 33)
	bt := &Batch{Msgs: []*Message{
		{Type: MsgRepl, Seq: 1, Key: key(), Vals: []uint64{7, 9}},
		{Type: MsgLeaseNew, Seq: 2, Key: key(), Piggyback: pkt, NewFlow: true},
		{Type: MsgLeaseRenew, Seq: 3, Key: key()},
		{Type: MsgRepl, Seq: 4, Key: key(), Vals: []uint64{1, 2, 3}},
	}}
	b := bt.Marshal(nil)
	frames, err := MemberFrames(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(bt.Msgs) {
		t.Fatalf("%d frames for %d members", len(frames), len(bt.Msgs))
	}
	// The full regrouping reproduces the original datagram exactly.
	if got := AppendBatchFrames(nil, frames...); string(got) != string(b) {
		t.Fatalf("full reassembly diverged: %d vs %d bytes", len(got), len(b))
	}
	// Any subset regroups to the bytes a fresh marshal would produce.
	for _, idxs := range [][]int{{0}, {1, 3}, {0, 2, 3}} {
		var sub Batch
		var sf [][]byte
		for _, i := range idxs {
			sub.Msgs = append(sub.Msgs, bt.Msgs[i])
			sf = append(sf, frames[i])
		}
		want := sub.Marshal(nil)
		got := AppendBatchFrames(nil, sf...)
		if string(got) != string(want) {
			t.Fatalf("subset %v: frame reassembly diverged from marshal", idxs)
		}
	}
}

func TestMemberFramesMalformed(t *testing.T) {
	bt := &Batch{Msgs: []*Message{{Type: MsgRepl, Seq: 1, Key: key(), Vals: []uint64{1}}}}
	good := bt.Marshal(nil)
	cases := map[string][]byte{
		"not a batch":        {1, 2, 3, 4},
		"truncated member":   good[:len(good)-3],
		"trailing bytes":     append(append([]byte{}, good...), 0xEE),
		"count beyond data":  {batchMagic, batchVersion, 0, 9},
		"member len overrun": {batchMagic, batchVersion, 0, 1, 0xFF, 0xFF},
	}
	for name, b := range cases {
		if _, err := MemberFrames(b, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBatchMarshalTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized batch did not panic")
		}
	}()
	bt := &Batch{Msgs: make([]*Message, MaxBatchMsgs+1)}
	for i := range bt.Msgs {
		bt.Msgs[i] = &Message{Type: MsgRepl, Key: key()}
	}
	bt.Marshal(nil)
}
