package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestUnmarshalNeverPanics feeds random byte soup into the decoder: a
// store server must survive any datagram off the wire.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		var m Message
		_ = m.Unmarshal(b) // error or success, never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalTruncationsOfValid truncates valid encodings at every
// length: each prefix must decode cleanly or error, never panic or
// produce a piggyback that aliases out of bounds.
func TestUnmarshalTruncationsOfValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		m := &Message{
			Type: MsgType(1 + rng.Intn(10)), Seq: rng.Uint64(), Key: key(),
			Vals: make([]uint64, rng.Intn(6)),
		}
		for i := range m.Vals {
			m.Vals[i] = rng.Uint64()
		}
		b := m.Marshal(nil)
		for cut := 0; cut <= len(b); cut++ {
			var g Message
			_ = g.Unmarshal(b[:cut])
		}
	}
}

// TestBitflipsNeverPanic corrupts single bytes of valid messages.
func TestBitflipsNeverPanic(t *testing.T) {
	m := &Message{Type: MsgRepl, Seq: 7, Key: key(), Vals: []uint64{1, 2}}
	b := m.Marshal(nil)
	for i := range b {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			c := append([]byte(nil), b...)
			c[i] ^= x
			var g Message
			_ = g.Unmarshal(c)
		}
	}
}

// sameDecode reports whether two decodes hold the same message; a decode
// into a reused message may leave an empty Vals where a fresh one leaves
// nil.
func sameDecode(a, b Message) bool {
	if len(a.Vals) == 0 && len(b.Vals) == 0 {
		a.Vals, b.Vals = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// FuzzMessageUnmarshal pins the decode-reuse contract a receiver relies on
// when it decodes every datagram into the same Message: decoding b into
// whatever decoding prev left behind gives what a fresh decode of b gives,
// result and error alike, and an accepted message survives Marshal.
// testdata/fuzz/FuzzMessageUnmarshal holds a piggybacked packet whose IP
// length disagrees with its bytes.
func FuzzMessageUnmarshal(f *testing.F) {
	wide := benchMessage()
	narrow := &Message{Type: MsgReplAck, Seq: 3, Key: key(), Vals: []uint64{1}, SwitchID: 1}
	lease := &Message{Type: MsgLeaseNew, Key: key(), SwitchID: 2}
	for _, p := range [][]byte{wide.Marshal(nil), narrow.Marshal(nil), lease.Marshal(nil), nil} {
		for _, b := range [][]byte{wide.Marshal(nil), narrow.Marshal(nil), lease.Marshal(nil), wide.Marshal(nil)[:headerLen+8]} {
			f.Add(p, b)
		}
	}
	f.Fuzz(func(t *testing.T, prev, b []byte) {
		var fresh, reused Message
		errFresh := fresh.Unmarshal(b)
		_ = reused.Unmarshal(prev)
		errReused := reused.Unmarshal(b)
		if fmt.Sprint(errFresh) != fmt.Sprint(errReused) || !sameDecode(fresh, reused) {
			t.Fatalf("decode after %x:\n%+v (%v)\nfresh:\n%+v (%v)", prev, reused, errReused, fresh, errFresh)
		}
		if errFresh != nil {
			return
		}
		// Marshal recomputes a piggybacked packet's IP length and
		// checksum, so the packet may change once; the encoding is then a
		// fixed point, and the message's own fields never change.
		enc := fresh.Marshal(nil)
		var again Message
		if err := again.Unmarshal(enc); err != nil || !bytes.Equal(again.Marshal(nil), enc) {
			t.Fatalf("re-encode is not a fixed point: %v\n%x\n%x", err, enc, again.Marshal(nil))
		}
		again.Piggyback, fresh.Piggyback = nil, nil
		if !sameDecode(again, fresh) {
			t.Fatalf("re-encode changed the message:\n%+v\n%+v", fresh, again)
		}
	})
}
