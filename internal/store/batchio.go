package store

import (
	"net"
	"net/netip"
)

// udpBufSize is the receive-slot capacity: a full UDP datagram.
const udpBufSize = 65536

// rxSlot is one datagram's worth of batched-receive state. The receiver
// owns the buffer until it hands the datagram to a shard ring, at which
// point it replaces buf from the pool — the slots themselves persist
// across ReadBatch calls.
type rxSlot struct {
	buf  *[]byte // pool handle, len udpBufSize; ReadBatch fills (*buf)[:n]
	n    int
	addr netip.AddrPort // datagram source, v4-in-v6 unmapped
}

// txSlot is one outgoing datagram: a marshaled payload and its
// destination (unmapped, like every address the server holds). Slots are
// reused; buf is truncated and re-appended per datagram so its capacity
// is retained.
type txSlot struct {
	buf  []byte
	addr netip.AddrPort
}

// unmapped converts a resolved address to the form a txSlot carries.
func unmapped(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// batchReader drains a UDP socket in batches: one call returns as many
// datagrams as a single batched receive produced (a lone datagram on
// the portable fallback, up to len(slots) with recvmmsg), blocking
// until at least one arrives.
type batchReader interface {
	ReadBatch(slots []rxSlot) (int, error)
}

// batchWriter sends a batch of datagrams, blocking until all are
// handed to the kernel.
type batchWriter interface {
	WriteBatch(slots []txSlot) error
}

// loopReader is the portable fallback batchReader: one ReadFromUDP
// syscall per datagram, behind the same interface as the Linux
// recvmmsg path so the server above is identical on every platform.
type loopReader struct{ conn *net.UDPConn }

func (r *loopReader) ReadBatch(slots []rxSlot) (int, error) {
	n, addr, err := r.conn.ReadFromUDPAddrPort(*slots[0].buf)
	if err != nil {
		return 0, err
	}
	slots[0].n = n
	slots[0].addr = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
	return 1, nil
}

// loopWriter is the portable fallback batchWriter: one write per
// datagram.
type loopWriter struct{ conn *net.UDPConn }

func (w *loopWriter) WriteBatch(slots []txSlot) error {
	for i := range slots {
		if _, err := w.conn.WriteToUDPAddrPort(slots[i].buf, slots[i].addr); err != nil {
			return err
		}
	}
	return nil
}

// newPortableIO returns the fallback implementation on any platform.
func newPortableIO(conn *net.UDPConn) (batchReader, batchWriter, string) {
	return &loopReader{conn: conn}, &loopWriter{conn: conn}, "portable"
}
