package wire

import (
	"encoding/binary"
	"errors"

	"redplane/internal/packet"
)

// Batch packs multiple protocol messages into one datagram, amortizing
// the Ethernet/IPv4/UDP encapsulation and — far more importantly — the
// per-datagram receive, service, and chain-propagation cost at the
// store. It is the unit of the switch's egress coalescing window and of
// the store's batched chain replication (NetChain-style update packing;
// see DESIGN.md "Batched replication").
//
// On the wire a batch is
//
//	magic(1) version(1) count(2) { msgLen(2) message... }*
//
// where each message uses the standard Marshal encoding. The magic byte
// disambiguates batches from single messages: a bare message starts with
// the high byte of its 64-bit sequence number, which would only collide
// with the magic for sequence numbers above 2^63 — unreachable for
// per-flow counters that start at zero.
type Batch struct {
	Msgs []*Message
}

// batchMagic is the first byte of every batch datagram.
const batchMagic byte = 0xB7

// batchVersion is the framing version, for forward compatibility.
const batchVersion byte = 1

// BatchHeaderLen is magic + version + count: the bytes a batch adds to
// its members' length-prefixed frames.
const BatchHeaderLen = 4

// MaxBatchMsgs bounds the messages per batch (the count field is 16-bit,
// but practical batches stay far below this: egress flush windows cap
// out near the configured flush limit).
const MaxBatchMsgs = 1 << 14

// errBadBatch reports a malformed batch datagram.
var errBadBatch = errors.New("wire: malformed batch")

// IsBatch reports whether a datagram payload is batch-framed.
func IsBatch(b []byte) bool {
	return len(b) >= BatchHeaderLen && b[0] == batchMagic && b[1] == batchVersion
}

// Len returns the number of messages in the batch.
func (bt *Batch) Len() int { return len(bt.Msgs) }

// WireLen returns the batch's total on-wire size including one
// encapsulation for the whole datagram: each member message contributes
// its header, values, and piggyback, plus the 2-byte length prefix, but
// not its own Ethernet/IP/UDP framing — that is the batching win.
func (bt *Batch) WireLen() int {
	n := packet.EthernetLen + packet.IPv4Len + packet.UDPLen + BatchHeaderLen
	for _, m := range bt.Msgs {
		n += 2 + headerLen + 8*len(m.Vals)
		if m.Piggyback != nil {
			n += 2 + m.Piggyback.WireLen() - packet.EthernetLen
		}
	}
	if n < 64 {
		n = 64
	}
	return n
}

// Marshal appends the batch framing and every member message to b in a
// single pass — messages marshal straight into the output buffer (no
// per-message intermediate allocation), with their length prefixes
// back-patched.
func (bt *Batch) Marshal(b []byte) []byte {
	b = AppendBatchHeader(b, len(bt.Msgs))
	for _, m := range bt.Msgs {
		lenAt := len(b)
		b = append(b, 0, 0)
		b = m.Marshal(b)
		n := len(b) - lenAt - 2
		if n > 0xFFFF {
			panic("wire: batch member too large")
		}
		binary.BigEndian.PutUint16(b[lenAt:], uint16(n))
	}
	return b
}

// MemberFrames appends each member message's length-prefixed frame —
// a subslice of b, prefix included — to frames and returns it. It walks
// only the batch framing, not the member encodings, so a receiver that
// has already decoded the batch can regroup members into new batch
// datagrams by concatenating these spans instead of re-marshaling every
// message (see AppendBatchFrames).
func MemberFrames(b []byte, frames [][]byte) ([][]byte, error) {
	if !IsBatch(b) {
		return frames, errBadBatch
	}
	count := int(binary.BigEndian.Uint16(b[2:4]))
	b = b[BatchHeaderLen:]
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return frames, errBadBatch
		}
		n := 2 + int(binary.BigEndian.Uint16(b[0:2]))
		if len(b) < n {
			return frames, errBadBatch
		}
		frames = append(frames, b[:n])
		b = b[n:]
	}
	if len(b) != 0 {
		return frames, errBadBatch
	}
	return frames, nil
}

// AppendBatchFrames appends a batch datagram built from already-framed
// members (length-prefixed spans as returned by MemberFrames) to dst.
// Because the member bytes are copied verbatim under a fresh header,
// the result is byte-identical to marshaling a Batch of the same
// messages — without touching any member's encoding.
func AppendBatchFrames(dst []byte, frames ...[]byte) []byte {
	dst = AppendBatchHeader(dst, len(frames))
	for _, f := range frames {
		dst = append(dst, f...)
	}
	return dst
}

// AppendBatchHeader appends the framing of a batch of n members to dst;
// the caller appends their length-prefixed frames after it.
func AppendBatchHeader(dst []byte, n int) []byte {
	if n > MaxBatchMsgs {
		panic("wire: batch too large")
	}
	dst = append(dst, batchMagic, batchVersion)
	return binary.BigEndian.AppendUint16(dst, uint16(n))
}

// Unmarshal decodes a batch datagram. Member messages are decoded into
// freshly allocated Messages (they outlive the receive buffer).
func (bt *Batch) Unmarshal(b []byte) error {
	if !IsBatch(b) {
		return errBadBatch
	}
	count := int(binary.BigEndian.Uint16(b[2:4]))
	b = b[BatchHeaderLen:]
	bt.Msgs = make([]*Message, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return errBadBatch
		}
		n := int(binary.BigEndian.Uint16(b[0:2]))
		b = b[2:]
		if len(b) < n {
			return errBadBatch
		}
		m := new(Message)
		if err := m.Unmarshal(b[:n]); err != nil {
			return err
		}
		bt.Msgs = append(bt.Msgs, m)
		b = b[n:]
	}
	if len(b) != 0 {
		return errBadBatch
	}
	return nil
}
