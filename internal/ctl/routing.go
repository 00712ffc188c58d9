package ctl

import (
	"fmt"
	"net"
	"time"

	"redplane/internal/flowspace"
	"redplane/internal/packet"
)

// Router maps flows to chain heads using the daemon's epoch-numbered
// routing table. The flow→chain ring is rebuilt locally from
// (chains, vnodes) — flowspace.New places vnodes deterministically, so
// every switch and the daemon agree without shipping ring points.
type Router struct {
	Epoch  uint64
	Heads  []string
	Vnodes int
	table  *flowspace.Table
}

// NewRouter builds a router from a routing envelope's fields.
func NewRouter(epoch uint64, heads []string, vnodes int) (*Router, error) {
	if len(heads) == 0 {
		return nil, fmt.Errorf("ctl: routing table has no chains")
	}
	return &Router{Epoch: epoch, Heads: append([]string(nil), heads...),
		Vnodes: vnodes, table: flowspace.New(len(heads), vnodes)}, nil
}

// HeadFor returns the data address of the chain head owning key
// ("" if that chain currently has no live head).
func (r *Router) HeadFor(key packet.FiveTuple) string {
	return r.Heads[r.table.ChainFor(key)]
}

// FetchRouting performs a one-shot switch registration against the
// daemon and returns the first routing table it pushes. token is the
// shared secret for daemons running with -auth-token ("" if none).
func FetchRouting(ctlAddr, token string, timeout time.Duration) (*Router, error) {
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	nc, err := net.DialTimeout("tcp", ctlAddr, timeout)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %s: %w", ctlAddr, err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(timeout))
	cn := newConn(nc)
	if err := cn.send(&Envelope{Op: OpRegister, Role: "switch", Token: token}); err != nil {
		return nil, err
	}
	for {
		e, err := cn.recv()
		if err != nil {
			return nil, fmt.Errorf("ctl: awaiting routing from %s: %w", ctlAddr, err)
		}
		switch e.Op {
		case OpWelcome:
			if e.Err != "" {
				return nil, fmt.Errorf("ctl: %s", e.Err)
			}
		case OpRouting:
			return NewRouter(e.Epoch, e.Heads, e.Vnodes)
		}
	}
}
