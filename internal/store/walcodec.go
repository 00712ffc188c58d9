package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"redplane/internal/packet"
)

// WAL and checkpoint codecs. The durability layer (internal/durable) is
// byte-oriented; this file is where the store turns its Update records
// and shard images into payloads and back. Both codecs are
// little-endian and versionless — the WAL directory is not a cross-
// version interchange format, it is one deployment's crash-recovery
// state.

const (
	upFlagExists  = 1 << 0
	upFlagHasSnap = 1 << 1
)

func putKey(b []byte, k packet.FiveTuple) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Src))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Dst))
	b = binary.LittleEndian.AppendUint16(b, k.SrcPort)
	b = binary.LittleEndian.AppendUint16(b, k.DstPort)
	return append(b, byte(k.Proto))
}

func getKey(b []byte) (packet.FiveTuple, []byte, error) {
	if len(b) < 13 {
		return packet.FiveTuple{}, nil, fmt.Errorf("store: truncated key")
	}
	k := packet.FiveTuple{
		Src:     packet.Addr(binary.LittleEndian.Uint32(b[0:])),
		Dst:     packet.Addr(binary.LittleEndian.Uint32(b[4:])),
		SrcPort: binary.LittleEndian.Uint16(b[8:]),
		DstPort: binary.LittleEndian.Uint16(b[10:]),
		Proto:   packet.Proto(b[12]),
	}
	return k, b[13:], nil
}

func putVals(b []byte, vals []uint64) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vals)))
	for _, x := range vals {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// getVals reads a value list into a fresh slice, or — for a caller that
// copies what it keeps before reusing the arena — into the end of *arena.
func getVals(b []byte, arena *[]uint64) ([]uint64, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("store: truncated val count")
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < 8*n {
		return nil, nil, fmt.Errorf("store: truncated vals")
	}
	var vals []uint64
	if n > 0 && arena != nil {
		at := len(*arena)
		*arena = append(*arena, make([]uint64, n)...)
		vals = (*arena)[at : at+n : at+n]
	} else if n > 0 {
		vals = make([]uint64, n)
	}
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vals, b[8*n:], nil
}

func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("store: truncated u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func putU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func getU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("store: truncated u32")
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// EncodeUpdate serializes one chain update as a WAL record payload,
// appending to dst.
func EncodeUpdate(dst []byte, up Update) []byte {
	var flags byte
	if up.Exists {
		flags |= upFlagExists
	}
	if up.HasSnap {
		flags |= upFlagHasSnap
	}
	dst = append(dst, flags)
	dst = putKey(dst, up.Key)
	dst = putU64(dst, up.LastSeq)
	dst = putU64(dst, uint64(up.Owner))
	dst = putU64(dst, uint64(up.LeaseExpiry))
	dst = putVals(dst, up.Vals)
	if up.HasSnap {
		dst = putU32(dst, up.SnapEpoch)
		dst = putU32(dst, up.SnapSlot)
		dst = putVals(dst, up.SnapVals)
	}
	return dst
}

// DecodeUpdate parses a WAL record payload written by EncodeUpdate. The
// Update owns its values.
func DecodeUpdate(b []byte) (Update, error) { return decodeUpdate(b, nil) }

// decodeUpdate is DecodeUpdate with the values placed by getVals.
func decodeUpdate(b []byte, arena *[]uint64) (Update, error) {
	var up Update
	if len(b) < 1 {
		return up, fmt.Errorf("store: empty update record")
	}
	flags := b[0]
	up.Exists = flags&upFlagExists != 0
	up.HasSnap = flags&upFlagHasSnap != 0
	b = b[1:]
	var err error
	if up.Key, b, err = getKey(b); err != nil {
		return up, err
	}
	if up.LastSeq, b, err = getU64(b); err != nil {
		return up, err
	}
	var u uint64
	if u, b, err = getU64(b); err != nil {
		return up, err
	}
	up.Owner = int(int64(u))
	if u, b, err = getU64(b); err != nil {
		return up, err
	}
	up.LeaseExpiry = int64(u)
	if up.Vals, b, err = getVals(b, arena); err != nil {
		return up, err
	}
	if up.HasSnap {
		if up.SnapEpoch, b, err = getU32(b); err != nil {
			return up, err
		}
		if up.SnapSlot, b, err = getU32(b); err != nil {
			return up, err
		}
		if up.SnapVals, _, err = getVals(b, arena); err != nil {
			return up, err
		}
	}
	return up, nil
}

const (
	ckFlagExists   = 1 << 0
	ckFlagHasImage = 1 << 1
)

// EncodeCheckpoint serializes the shard's recoverable state — per flow:
// key, values, last applied sequence number, lease owner and expiry,
// snapshot epoch and last complete snapshot image. The waiting queue
// (buffered lease requests held by the old process's transport) and any
// in-progress snapshot slot map are deliberately excluded: both are
// reconstructed by protocol retransmission after a restart. Flows are
// written in sorted key order so identical shards checkpoint to
// identical bytes.
func (s *Shard) EncodeCheckpoint() []byte {
	keys := make([]packet.FiveTuple, 0, len(s.flows))
	for k := range s.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })

	b := putU32(nil, uint32(len(keys)))
	for _, k := range keys {
		f := s.flows[k]
		b = putKey(b, k)
		var flags byte
		if f.exists {
			flags |= ckFlagExists
		}
		if f.lastSnapshot != nil {
			flags |= ckFlagHasImage
		}
		b = append(b, flags)
		b = putU64(b, f.lastSeq)
		b = putU64(b, uint64(f.owner))
		b = putU64(b, uint64(f.leaseExpiry))
		b = putVals(b, f.vals)
		b = putU32(b, f.snapEpoch)
		b = putU64(b, uint64(f.lastSnapTime))
		if f.lastSnapshot != nil {
			b = putVals(b, f.lastSnapshot)
		}
	}
	return b
}

// LoadCheckpoint replaces the shard's flow table with a checkpoint
// image written by EncodeCheckpoint. Stats are not restored — they are
// process-lifetime observability, not replicated state.
func (s *Shard) LoadCheckpoint(b []byte) error {
	n, b, err := getU32(b)
	if err != nil {
		return err
	}
	flows := make(map[packet.FiveTuple]*flowState, n)
	for i := uint32(0); i < n; i++ {
		var k packet.FiveTuple
		if k, b, err = getKey(b); err != nil {
			return err
		}
		if len(b) < 1 {
			return fmt.Errorf("store: truncated checkpoint flags")
		}
		flags := b[0]
		b = b[1:]
		f := &flowState{exists: flags&ckFlagExists != 0}
		if f.lastSeq, b, err = getU64(b); err != nil {
			return err
		}
		var u uint64
		if u, b, err = getU64(b); err != nil {
			return err
		}
		f.owner = int(int64(u))
		if u, b, err = getU64(b); err != nil {
			return err
		}
		f.leaseExpiry = int64(u)
		if f.vals, b, err = getVals(b, nil); err != nil {
			return err
		}
		if f.snapEpoch, b, err = getU32(b); err != nil {
			return err
		}
		if u, b, err = getU64(b); err != nil {
			return err
		}
		f.lastSnapTime = int64(u)
		if flags&ckFlagHasImage != 0 {
			if f.lastSnapshot, b, err = getVals(b, nil); err != nil {
				return err
			}
		}
		flows[k] = f
	}
	s.flows = flows
	return nil
}

// RestoreFrom rebuilds the shard from a checkpoint image plus the WAL
// tail past the checkpoint, in replay order. A nil checkpoint restores
// from an empty shard (the WAL covers everything). Callers install the
// WAL hook only after RestoreFrom returns, so replayed updates are not
// re-logged.
func (s *Shard) RestoreFrom(checkpoint []byte, walTail []Update) error {
	if checkpoint != nil {
		if err := s.LoadCheckpoint(checkpoint); err != nil {
			return err
		}
	} else {
		s.flows = make(map[packet.FiveTuple]*flowState)
	}
	for _, up := range walTail {
		s.Apply(up)
	}
	return nil
}
