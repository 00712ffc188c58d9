//go:build linux && (amd64 || arm64) && !portablemmsg

package store

// Batched UDP syscalls via recvmmsg(2)/sendmmsg(2). The frozen stdlib
// syscall package predates sendmmsg, so the syscall numbers live in the
// per-arch files and the mmsghdr layout is declared here (64-bit only:
// struct msghdr is 56 bytes, so mmsghdr pads msg_len to the next 8-byte
// boundary). Build -tags portablemmsg to force the portable
// single-datagram fallback on Linux — CI runs the store tests both
// ways so neither path rots.

import (
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32 // bytes received/sent for this message
	_   [4]byte
}

// newPlatformIO returns the batched recvmmsg/sendmmsg implementation,
// or the portable fallback if the socket does not expose a raw fd.
func newPlatformIO(conn *net.UDPConn) (batchReader, batchWriter, string) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return newPortableIO(conn)
	}
	local, _ := conn.LocalAddr().(*net.UDPAddr)
	r := &mmsgReader{rc: rc}
	w := &mmsgWriter{rc: rc, v6: local != nil && local.IP.To4() == nil}
	// Bound once: a method value made per call is a heap allocation.
	r.call, w.call = r.recv, w.send
	return r, w, "mmsg"
}

// mmsgReader drains up to len(slots) datagrams per recvmmsg call. The
// header/iovec/name arrays persist across calls; only the iovec bases
// are re-pointed, since slot buffers are replaced by the receiver when
// a datagram's ownership moves to a shard ring.
type mmsgReader struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny

	call  func(fd uintptr) bool // recv, handed to rc.Read
	want  int                   // headers offered to the call in flight
	n     int                   // its result
	errno syscall.Errno
}

func (r *mmsgReader) ReadBatch(slots []rxSlot) (int, error) {
	if len(r.hdrs) < len(slots) {
		r.hdrs = make([]mmsghdr, len(slots))
		r.iovs = make([]syscall.Iovec, len(slots))
		r.names = make([]syscall.RawSockaddrAny, len(slots))
	}
	for i := range slots {
		r.iovs[i].Base = &(*slots[i].buf)[0]
		r.iovs[i].SetLen(len(*slots[i].buf))
		r.hdrs[i].Hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.hdrs[i].Hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		r.hdrs[i].Hdr.Iov = &r.iovs[i]
		r.hdrs[i].Hdr.Iovlen = 1
		r.hdrs[i].Len = 0
	}
	r.want = len(slots)
	if err := r.rc.Read(r.call); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, fmt.Errorf("store: recvmmsg: %w", r.errno)
	}
	for i := 0; i < r.n; i++ {
		slots[i].n = int(r.hdrs[i].Len)
		slots[i].addr = sockaddrToAddrPort(&r.names[i])
	}
	return r.n, nil
}

func (r *mmsgReader) recv(fd uintptr) bool {
	nn, _, e := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(r.want),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false // netpoller parks until readable
	}
	r.n, r.errno = int(nn), e
	return true
}

// mmsgWriter sends up to len(slots) datagrams per sendmmsg call,
// looping on partial sends and parking on EAGAIN.
type mmsgWriter struct {
	rc   syscall.RawConn
	v6   bool // socket family: v4 destinations need mapping on a v6 socket
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sa4  []syscall.RawSockaddrInet4
	sa6  []syscall.RawSockaddrInet6

	call      func(fd uintptr) bool // send, handed to rc.Write
	sent, end int                   // headers [sent, end) are offered to the call in flight
	n         int                   // its result
	errno     syscall.Errno
}

func (w *mmsgWriter) WriteBatch(slots []txSlot) error {
	if len(w.hdrs) < len(slots) {
		w.hdrs = make([]mmsghdr, len(slots))
		w.iovs = make([]syscall.Iovec, len(slots))
		w.sa4 = make([]syscall.RawSockaddrInet4, len(slots))
		w.sa6 = make([]syscall.RawSockaddrInet6, len(slots))
	}
	for i := range slots {
		w.iovs[i].Base = &slots[i].buf[0]
		w.iovs[i].SetLen(len(slots[i].buf))
		name, namelen, err := w.sockaddr(slots[i].addr, i)
		if err != nil {
			return err
		}
		w.hdrs[i].Hdr.Name = name
		w.hdrs[i].Hdr.Namelen = namelen
		w.hdrs[i].Hdr.Iov = &w.iovs[i]
		w.hdrs[i].Hdr.Iovlen = 1
		w.hdrs[i].Len = 0
	}
	for w.sent, w.end = 0, len(slots); w.sent < w.end; w.sent += w.n {
		if err := w.rc.Write(w.call); err != nil {
			return err
		}
		if w.errno != 0 {
			return fmt.Errorf("store: sendmmsg: %w", w.errno)
		}
		if w.n <= 0 {
			return fmt.Errorf("store: sendmmsg made no progress")
		}
	}
	return nil
}

func (w *mmsgWriter) send(fd uintptr) bool {
	nn, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&w.hdrs[w.sent])), uintptr(w.end-w.sent),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false // netpoller parks until writable
	}
	w.n, w.errno = int(nn), e
	return true
}

// sockaddr encodes dst into the i-th persistent sockaddr slot, mapping
// IPv4 destinations to v4-in-v6 when the socket itself is AF_INET6.
func (w *mmsgWriter) sockaddr(dst netip.AddrPort, i int) (*byte, uint32, error) {
	addr := dst.Addr()
	if !addr.IsValid() {
		return nil, 0, fmt.Errorf("store: unroutable destination %v", dst)
	}
	if addr.Is4() && !w.v6 {
		sa := &w.sa4[i]
		sa.Family = syscall.AF_INET
		sa.Port = htons16(dst.Port())
		sa.Addr = addr.As4()
		return (*byte)(unsafe.Pointer(sa)), uint32(unsafe.Sizeof(*sa)), nil
	}
	sa := &w.sa6[i]
	// As16 maps an IPv4 address to ::ffff:a.b.c.d.
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons16(dst.Port()), Addr: addr.As16()}
	return (*byte)(unsafe.Pointer(sa)), uint32(unsafe.Sizeof(*sa)), nil
}

// sockaddrToAddrPort decodes a received sockaddr without allocating,
// unmapping v4-in-v6 so downstream relay prefixes stay 4-byte.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), htons16(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), htons16(sa.Port))
	}
	return netip.AddrPort{}
}

// htons16 swaps a port between host order and the sockaddr's big-endian
// field (whose declared Go type is host-order uint16).
func htons16(p uint16) uint16 { return p>>8 | p<<8 }
