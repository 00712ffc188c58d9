// Package wire defines the RedPlane state-replication protocol messages
// exchanged between a switch data plane and the external state store
// (paper Fig. 4). A message travels as a UDP packet addressed with the
// state store's (or switch's) IP; the RedPlane header carries a per-flow
// sequence number, a message type, and the flow key, optionally followed
// by state values and a piggybacked output packet.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"redplane/internal/packet"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types. Requests flow switch→store, acks store→switch.
const (
	// MsgLeaseNew requests a lease and state initialization or migration
	// for a flow the switch has not seen (§5.1 steps 1/4). The triggering
	// packet is piggybacked so it is buffered through the network.
	MsgLeaseNew MsgType = iota + 1
	// MsgLeaseRenew renews an existing lease without a state update
	// (§5.3; sent every RenewInterval by read-centric switches).
	MsgLeaseRenew
	// MsgRepl replicates a state update; the output packet is piggybacked
	// and released only when the ack returns (§5.1 step 2).
	MsgRepl
	// MsgBufferedRead carries a read-only packet that arrived while
	// replication requests for its flow were in flight; the store echoes
	// it back after the latest preceding write is applied (§5.1).
	MsgBufferedRead
	// MsgSnapshot asynchronously replicates one slot of a snapshotted
	// data structure in bounded-inconsistency mode (§5.4).
	MsgSnapshot

	// MsgLeaseNewAck grants a lease; Vals carries the flow's current
	// state (empty for a brand-new flow) and the piggybacked packet is
	// returned for release.
	MsgLeaseNewAck
	// MsgLeaseRenewAck confirms a renewal.
	MsgLeaseRenewAck
	// MsgReplAck confirms a replication request up to Seq and returns the
	// piggybacked output packet.
	MsgReplAck
	// MsgBufferedReadAck returns a buffered read packet for release.
	MsgBufferedReadAck
	// MsgSnapshotAck confirms a snapshot slot write.
	MsgSnapshotAck

	// MsgLeaseReject tells a switch another switch holds the flow's lease;
	// the requester must retry (the store also queues the request, per
	// the protocol's BUFFERING state, and this ack is only sent when
	// queuing is disabled).
	MsgLeaseReject
)

// Out-of-band control types, numbered away from the contiguous
// request/ack ranges so existing range classification is untouched.
const (
	// MsgHello asks a real store server for its deployment shape before
	// any traffic is sent: shard count, chain role, view. Switch-side
	// tools use it to fail fast on misconfiguration (pointing a switch
	// at a mid-chain replica, assuming the wrong shard count) instead of
	// silently misrouting writes. The simulator never sends it.
	MsgHello MsgType = 20
	// MsgHelloAck answers MsgHello; see store.HelloInfo for the Vals
	// layout.
	MsgHelloAck MsgType = 21
)

// String returns the message-type mnemonic.
func (t MsgType) String() string {
	switch t {
	case MsgLeaseNew:
		return "LeaseNew"
	case MsgLeaseRenew:
		return "LeaseRenew"
	case MsgRepl:
		return "Repl"
	case MsgBufferedRead:
		return "BufferedRead"
	case MsgSnapshot:
		return "Snapshot"
	case MsgLeaseNewAck:
		return "LeaseNewAck"
	case MsgLeaseRenewAck:
		return "LeaseRenewAck"
	case MsgReplAck:
		return "ReplAck"
	case MsgBufferedReadAck:
		return "BufferedReadAck"
	case MsgSnapshotAck:
		return "SnapshotAck"
	case MsgLeaseReject:
		return "LeaseReject"
	case MsgHello:
		return "Hello"
	case MsgHelloAck:
		return "HelloAck"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// IsRequest reports whether the type is a switch→store request.
func (t MsgType) IsRequest() bool {
	return (t >= MsgLeaseNew && t <= MsgSnapshot) || t == MsgHello
}

// IsAck reports whether the type is a store→switch acknowledgment.
func (t MsgType) IsAck() bool {
	return (t >= MsgLeaseNewAck && t <= MsgLeaseReject) || t == MsgHelloAck
}

// Message is a RedPlane protocol message. In the simulator it travels by
// reference inside a netsim frame; over real networks it is encoded with
// Marshal/Unmarshal inside a UDP datagram.
type Message struct {
	Type MsgType

	// Seq is the per-flow monotonically increasing sequence number that
	// the store uses to serialize out-of-order replication requests
	// (§5.2). For acks it is the highest sequence number covered.
	Seq uint64

	// Key identifies the flow partition the message concerns.
	Key packet.FiveTuple

	// Vals carries state values (register contents) for Repl requests and
	// LeaseNewAck state migration.
	Vals []uint64

	// Slot addresses one entry of a snapshotted structure (MsgSnapshot).
	Slot uint32

	// Epoch identifies the snapshot round a MsgSnapshot belongs to.
	Epoch uint32

	// LeaseMillis is the granted lease duration in ms (acks only).
	LeaseMillis uint32

	// NewFlow is set on MsgLeaseNewAck when the store had no prior state
	// for the flow (case 1 of §5.1's initialization), clear when existing
	// state was migrated (case 2).
	NewFlow bool

	// Piggyback is the buffered-through-the-network packet: the
	// triggering input packet on requests, the releasable output packet
	// on acks. Nil when the message carries no packet.
	Piggyback *packet.Packet

	// SwitchID and StoreShard identify the endpoints; the simulator uses
	// them for addressing and the experiments for accounting.
	SwitchID   int
	StoreShard int
}

// headerLen is the fixed RedPlane header size on the wire: seq(8) type(1)
// flags(1) key(13) nvals(1) slot(4) epoch(4) lease(4) switch(2) shard(2).
const headerLen = 40

// overheadLen is the full protocol overhead of a message on the wire,
// including the Ethernet/IPv4/UDP encapsulation of Fig. 4.
const overheadLen = packet.EthernetLen + packet.IPv4Len + packet.UDPLen + headerLen

// WireLen returns the message's total on-wire size in bytes, including
// encapsulation, values, and any piggybacked packet (whose own Ethernet
// framing is not repeated inside the tunnel: the inner packet contributes
// its IP-and-up bytes).
func (m *Message) WireLen() int {
	n := overheadLen + 8*len(m.Vals)
	if m.Piggyback != nil {
		n += m.Piggyback.WireLen() - packet.EthernetLen
	}
	if n < 64 {
		n = 64
	}
	return n
}

// TruncatedLen returns the size of the message with the piggybacked
// payload stripped, which is what the mirroring-based retransmission
// mechanism buffers (§5.2: "RedPlane buffers only state updates ... by
// truncating the packet").
func (m *Message) TruncatedLen() int {
	n := overheadLen + 8*len(m.Vals)
	if n < 64 {
		n = 64
	}
	return n
}

// Clone returns a deep copy of the message (shared piggyback packets are
// cloned too, since retransmission paths may mutate timestamps).
func (m *Message) Clone() *Message {
	c := *m
	if m.Vals != nil {
		c.Vals = append([]uint64(nil), m.Vals...)
	}
	if m.Piggyback != nil {
		c.Piggyback = m.Piggyback.Clone()
	}
	return &c
}

// CloneTruncated returns a copy of the message with the piggybacked
// packet stripped — the form the mirroring-based retransmission buffer
// stores (§5.2: "RedPlane buffers only state updates ... by truncating
// the packet"). Unlike Clone, it never copies the piggybacked packet,
// so the mirror path stays one small allocation per tracked request.
func (m *Message) CloneTruncated() *Message {
	c := *m
	c.Piggyback = nil
	if m.Vals != nil {
		c.Vals = append([]uint64(nil), m.Vals...)
	}
	return &c
}

// flag bits in the wire encoding.
const (
	flagNewFlow   = 1 << 0
	flagPiggyback = 1 << 1
)

// errBadMessage reports a malformed wire message.
var errBadMessage = errors.New("wire: malformed message")

// Marshal appends the RedPlane header (and piggyback, if any) to b. The
// caller wraps the result in UDP/IP/Ethernet (or hands it to a UDP socket).
func (m *Message) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	flags := uint8(0)
	if m.NewFlow {
		flags |= flagNewFlow
	}
	if m.Piggyback != nil {
		flags |= flagPiggyback
	}
	b = append(b, uint8(m.Type), flags)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Key.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Key.Dst))
	b = binary.BigEndian.AppendUint16(b, m.Key.SrcPort)
	b = binary.BigEndian.AppendUint16(b, m.Key.DstPort)
	b = append(b, uint8(m.Key.Proto))
	if len(m.Vals) > 255 {
		panic("wire: too many values")
	}
	b = append(b, uint8(len(m.Vals)))
	b = binary.BigEndian.AppendUint32(b, m.Slot)
	b = binary.BigEndian.AppendUint32(b, m.Epoch)
	b = binary.BigEndian.AppendUint32(b, m.LeaseMillis)
	b = binary.BigEndian.AppendUint16(b, uint16(m.SwitchID))
	b = binary.BigEndian.AppendUint16(b, uint16(m.StoreShard))
	for _, v := range m.Vals {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	if m.Piggyback != nil {
		// Marshal the inner packet straight into b (no intermediate
		// buffer), then back-patch its length prefix.
		lenAt := len(b)
		b = append(b, 0, 0)
		b = m.Piggyback.Marshal(b)
		binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt-2))
	}
	return b
}

// Unmarshal decodes a message from b (the UDP payload) into m, reusing
// m.Vals's backing array when it holds the values: they are overwritten.
func (m *Message) Unmarshal(b []byte) error {
	vals := m.Vals[:0]
	*m = Message{}
	if len(b) < headerLen {
		return errBadMessage
	}
	m.Seq = binary.BigEndian.Uint64(b[0:8])
	m.Type = MsgType(b[8])
	flags := b[9]
	m.Key.Src = packet.Addr(binary.BigEndian.Uint32(b[10:14]))
	m.Key.Dst = packet.Addr(binary.BigEndian.Uint32(b[14:18]))
	m.Key.SrcPort = binary.BigEndian.Uint16(b[18:20])
	m.Key.DstPort = binary.BigEndian.Uint16(b[20:22])
	m.Key.Proto = packet.Proto(b[22])
	nvals := int(b[23])
	m.Slot = binary.BigEndian.Uint32(b[24:28])
	m.Epoch = binary.BigEndian.Uint32(b[28:32])
	m.LeaseMillis = binary.BigEndian.Uint32(b[32:36])
	m.SwitchID = int(binary.BigEndian.Uint16(b[36:38]))
	m.StoreShard = int(binary.BigEndian.Uint16(b[38:40]))
	m.NewFlow = flags&flagNewFlow != 0
	b = b[headerLen:]
	if len(b) < 8*nvals {
		return errBadMessage
	}
	if cap(vals) < nvals {
		vals = make([]uint64, nvals) // exactly: growing by append costs a batch's decode
	}
	m.Vals = vals[:nvals] // nil only if it was
	for i := range m.Vals {
		m.Vals[i] = binary.BigEndian.Uint64(b[8*i : 8*i+8])
	}
	b = b[8*nvals:]
	if flags&flagPiggyback != 0 {
		if len(b) < 2 {
			return errBadMessage
		}
		n := int(binary.BigEndian.Uint16(b[0:2]))
		b = b[2:]
		if len(b) < n {
			return errBadMessage
		}
		m.Piggyback = new(packet.Packet)
		if err := m.Piggyback.Unmarshal(b[:n]); err != nil {
			return fmt.Errorf("wire: piggyback: %w", err)
		}
	}
	return nil
}

// AckFor returns the ack type corresponding to a request type, or 0 if t
// is not a request.
func AckFor(t MsgType) MsgType {
	switch t {
	case MsgLeaseNew:
		return MsgLeaseNewAck
	case MsgLeaseRenew:
		return MsgLeaseRenewAck
	case MsgRepl:
		return MsgReplAck
	case MsgBufferedRead:
		return MsgBufferedReadAck
	case MsgSnapshot:
		return MsgSnapshotAck
	case MsgHello:
		return MsgHelloAck
	default:
		return 0
	}
}

// StorePort is the UDP port the state store listens on, both in the
// simulator's address plan and in the real-UDP binaries.
const StorePort uint16 = 9500

// SwitchPort is the UDP source port RedPlane switches use for protocol
// traffic, so acks route back to the switch.
const SwitchPort uint16 = 9501
