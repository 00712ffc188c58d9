package ctl

import (
	"log"
	"net"
	"sync"
	"time"

	"redplane/internal/store"
)

// StoreAgent connects a running store.UDPServer to a redplane-ctl
// daemon: it dials, registers, and then serves the daemon's commands
// (ping, set-next, export, install, digest) over the persistent
// connection, reconnecting with backoff for as long as the agent is
// open. Re-registration after a restart is what triggers the daemon's
// rejoin flow, so the agent needs no extra "I came back" signaling.
type StoreAgent struct {
	ctlAddr string
	name    string
	srv     *store.UDPServer
	wal     bool
	token   string

	// lastView fences stale commands: a delayed set-next from an old
	// rollout must not undo a newer one.
	lastView uint64

	mu     sync.Mutex
	cn     *conn
	closed bool
	stopCh chan struct{}
}

// NewStoreAgent wires srv to the daemon at ctlAddr under the given
// member name. wal reports whether the server runs durable. Call Run
// (usually in a goroutine) to start.
func NewStoreAgent(ctlAddr, name string, srv *store.UDPServer, wal bool) *StoreAgent {
	return &StoreAgent{ctlAddr: ctlAddr, name: name, srv: srv, wal: wal,
		stopCh: make(chan struct{})}
}

// SetAuthToken sets the shared secret carried on every register
// envelope, for daemons running with -auth-token. Call before Run.
func (a *StoreAgent) SetAuthToken(token string) { a.token = token }

// Close stops the agent and drops its daemon connection.
func (a *StoreAgent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	close(a.stopCh)
	if a.cn != nil {
		a.cn.c.Close()
	}
}

// Run dials, registers, and serves daemon commands until Close,
// reconnecting with capped backoff on any connection failure.
func (a *StoreAgent) Run() {
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-a.stopCh:
			return
		default:
		}
		if err := a.session(); err != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if closed {
				return
			}
			log.Printf("ctl agent %s: %v (reconnecting in %v)", a.name, err, backoff)
		}
		select {
		case <-a.stopCh:
			return
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// session runs one connect→register→serve cycle.
func (a *StoreAgent) session() error {
	nc, err := net.DialTimeout("tcp", a.ctlAddr, 3*time.Second)
	if err != nil {
		return err
	}
	cn := newConn(nc)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		nc.Close()
		return nil
	}
	a.cn = cn
	a.mu.Unlock()
	defer nc.Close()

	err = cn.send(&Envelope{Op: OpRegister, Role: "store", Name: a.name,
		Data: a.srv.Addr().String(), Shards: a.srv.Shards(), WAL: a.wal,
		Token: a.token})
	if err != nil {
		return err
	}
	for {
		cmd, err := cn.recv()
		if err != nil {
			return err
		}
		reply := a.handle(cmd)
		reply.Op, reply.Seq = OpAck, cmd.Seq
		if err := cn.send(reply); err != nil {
			return err
		}
	}
}

// handle executes one daemon command against the server.
func (a *StoreAgent) handle(cmd *Envelope) *Envelope {
	switch cmd.Op {
	case OpWelcome:
		if cmd.Err != "" {
			log.Printf("ctl agent %s: daemon refused registration: %s", a.name, cmd.Err)
		}
		return &Envelope{}
	case OpPing:
		reg := a.srv.Obs()
		return &Envelope{Counters: reg.Counters(), Gauges: reg.Gauges(),
			View: a.lastView}
	case OpSetNext:
		if cmd.View < a.lastView {
			return &Envelope{Err: "stale view"}
		}
		if err := a.srv.SetNextAddr(cmd.Next); err != nil {
			return &Envelope{Err: err.Error()}
		}
		a.srv.SetChainPos(cmd.Pos)
		a.srv.SetViewNum(cmd.View)
		a.lastView = cmd.View
		return &Envelope{View: cmd.View}
	case OpExport:
		return &Envelope{Updates: a.srv.ExportState()}
	case OpInstall:
		if cmd.View < a.lastView {
			return &Envelope{Err: "stale view"}
		}
		n := a.srv.InstallState(cmd.Updates, cmd.Replace)
		// An install bypasses normal request flow; checkpoint so the WAL
		// replays to the installed state even if we die right after.
		if err := a.srv.ForceCheckpoints(time.Now().UnixNano()); err != nil {
			return &Envelope{Err: err.Error(), Applied: n}
		}
		return &Envelope{Applied: n}
	case OpDigest:
		return &Envelope{Digest: a.srv.Digest()}
	default:
		return &Envelope{Err: "unknown op " + cmd.Op}
	}
}
