package repl

import "redplane/internal/packet"

// ChainMsg carries committed updates (and the outputs to release at the
// tail) down a replication chain. View is the sender's chain view
// number: receivers drop messages from any other view, which fences a
// replica that was spliced out of the chain but doesn't know it yet. On
// real sockets the same message is store.UDPServer's chain frame.
type ChainMsg struct {
	View uint64
	Ups  []Update
	Outs []Output
}

// ViewNum implements Msg.
func (c *ChainMsg) ViewNum() uint64 { return c.View }

// WireLen implements Msg: the held outputs' encoded payloads plus a
// fixed 48 bytes per update, under one ethernet/IP/UDP header.
func (c *ChainMsg) WireLen() int {
	n := packet.EthernetLen + packet.IPv4Len + packet.UDPLen
	for i := range c.Outs {
		n += c.Outs[i].Msg.WireLen() - packet.EthernetLen
	}
	n += 48 * len(c.Ups)
	if n < 64 {
		n = 64
	}
	return n
}

// QuorumAppend is the quorum leader's log-entry broadcast: the entry's
// updates under its log sequence number. Outputs are NOT on the wire —
// the leader holds them and releases on majority acknowledgment, so
// followers carry only state.
type QuorumAppend struct {
	View uint64
	Seq  uint64
	Ups  []Update
}

// ViewNum implements Msg.
func (q *QuorumAppend) ViewNum() uint64 { return q.View }

// WireLen implements Msg: a 16-byte entry header (view, seq) plus the
// same 48 bytes per update a ChainMsg budgets.
func (q *QuorumAppend) WireLen() int {
	n := packet.EthernetLen + packet.IPv4Len + packet.UDPLen + 16
	n += 48 * len(q.Ups)
	if n < 64 {
		n = 64
	}
	return n
}

// QuorumAck is a follower's durable-acknowledgment of one log entry,
// sent to the leader only after the follower's own fsync covers the
// entry's updates — the ordering that keeps every replica's durable
// state a superset of what it has acknowledged.
type QuorumAck struct {
	View uint64
	Seq  uint64
}

// ViewNum implements Msg.
func (q *QuorumAck) ViewNum() uint64 { return q.View }

// WireLen implements Msg: a minimum-size frame.
func (q *QuorumAck) WireLen() int { return 64 }
