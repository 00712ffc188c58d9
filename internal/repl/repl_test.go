package repl

import (
	"testing"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

func out(sw int) Output {
	return Output{DstSwitch: sw, Msg: wire.Message{Type: wire.MsgReplAck, SwitchID: sw}}
}

func TestQuorumLogMajorityReleasesInOrder(t *testing.T) {
	var l QuorumLog
	s1 := l.Append([]Output{out(1)}, 2)
	s2 := l.Append([]Output{out(2)}, 2)
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", s1, s2)
	}

	// Leader self-acks both; neither has quorum yet.
	if rel := l.Ack(s1); rel != nil {
		t.Fatalf("premature release: %v", rel)
	}
	if rel := l.Ack(s2); rel != nil {
		t.Fatalf("premature release: %v", rel)
	}
	// Follower acks in FIFO order: each completing ack releases exactly
	// its entry, in log order.
	rel := l.Ack(s1)
	if len(rel) != 1 || rel[0][0].DstSwitch != 1 {
		t.Fatalf("first release = %v", rel)
	}
	rel = l.Ack(s2)
	if len(rel) != 1 || rel[0][0].DstSwitch != 2 {
		t.Fatalf("second release = %v", rel)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending = %d", l.Pending())
	}
}

func TestQuorumLogDropsStragglersBelowCommit(t *testing.T) {
	var l QuorumLog
	s1 := l.Append([]Output{out(1)}, 2)
	s2 := l.Append([]Output{out(2)}, 2)

	// Entry 1's append was lost (its follower crashed); only entry 2
	// ever completes. Committing 2 must release 2 and drop 1 — not wedge
	// behind it.
	l.Ack(s1) // leader self-ack only
	l.Ack(s2)
	rel := l.Ack(s2)
	if len(rel) != 1 || rel[0][0].DstSwitch != 2 {
		t.Fatalf("release = %v, want entry 2 alone", rel)
	}
	if l.Has(s1) || l.Pending() != 0 {
		t.Fatalf("straggler not dropped: pending=%d", l.Pending())
	}
	// A late ack for the dropped entry is ignored.
	if rel := l.Ack(s1); rel != nil {
		t.Fatalf("dropped entry released: %v", rel)
	}
}

func TestQuorumLogResetDropsPendingKeepsNumbering(t *testing.T) {
	var l QuorumLog
	s1 := l.Append([]Output{out(1)}, 2)
	l.Reset()
	if l.Has(s1) || l.Pending() != 0 {
		t.Fatal("reset kept pending entries")
	}
	if rel := l.Ack(s1); rel != nil {
		t.Fatalf("pre-reset entry released: %v", rel)
	}
	if s2 := l.Append(nil, 1); s2 != s1+1 {
		t.Fatalf("seq after reset = %d, want %d", s2, s1+1)
	}
}

func TestQuorumLogNeedOneReleasesOnSelfAck(t *testing.T) {
	var l QuorumLog
	s := l.Append([]Output{out(7)}, 1)
	rel := l.Ack(s)
	if len(rel) != 1 || rel[0][0].DstSwitch != 7 {
		t.Fatalf("release = %v", rel)
	}
}

func TestChainMsgWireLen(t *testing.T) {
	hdr := packet.EthernetLen + packet.IPv4Len + packet.UDPLen
	c := &ChainMsg{Ups: make([]Update, 3)}
	if got, want := c.WireLen(), hdr+3*48; got != want {
		t.Errorf("ups-only WireLen = %d, want %d", got, want)
	}
	if got := (&ChainMsg{}).WireLen(); got != 64 {
		t.Errorf("empty WireLen = %d, want minimum frame 64", got)
	}
	ack := &wire.Message{Type: wire.MsgReplAck}
	c = &ChainMsg{Ups: make([]Update, 1), Outs: []Output{{Msg: *ack}}}
	want := hdr + (ack.WireLen() - packet.EthernetLen) + 48
	if want < 64 {
		want = 64
	}
	if got := c.WireLen(); got != want {
		t.Errorf("WireLen = %d, want %d", got, want)
	}
}

func TestConfigValidateAndDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := (Config{Engine: EngineQuorum}).Validate(); err != nil {
		t.Errorf("quorum invalid: %v", err)
	}
	if err := (Config{Engine: "paxos-made-up"}).Validate(); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := (Config{Replicas: -1}).Validate(); err == nil {
		t.Error("negative replicas accepted")
	}
	c := Config{}.WithDefaults()
	if c.Engine != EngineChain || c.Replicas != 3 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestResyncSourcePos(t *testing.T) {
	if got := ResyncSourcePos(EngineChain, 3); got != 2 {
		t.Errorf("chain resync source = %d, want tail 2", got)
	}
	if got := ResyncSourcePos(EngineQuorum, 3); got != 0 {
		t.Errorf("quorum resync source = %d, want leader 0", got)
	}
}
