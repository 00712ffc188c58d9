// Package ctl is RedPlane's out-of-band control plane for real
// deployments: the redplane-ctl daemon, the store-side agent embedded
// in cmd/redplane-store, and the switch-side routing client.
//
// The transport is deliberately minimal — newline-delimited JSON
// envelopes over one TCP connection per member. Agents DIAL the
// daemon (stores open no extra listening port), send a register
// envelope, and then serve daemon-issued commands over the same
// connection; a kill -9 tears the connection down, which is the
// daemon's fastest liveness signal, and a re-register after restart is
// the rejoin trigger. Commands that reshape a chain carry the view
// number that produced them, and agents reject anything older than the
// newest view they have applied (fencing against a delayed rollout
// racing a newer one).
//
// This mirrors the simulator's in-process member.Coordinator: both plan
// membership with the same member.PlanSplice/PlanRejoin helpers, and
// both fence twice — control commands by view here, and every data-path
// replication message by the view it is stamped with at the store (see
// DESIGN.md "Control plane").
package ctl

import (
	"bufio"
	"encoding/json"
	"net"

	"redplane/internal/repl"
)

// Envelope is the single wire message of the control protocol. Op
// selects which fields matter; Seq correlates a command with its reply
// on the same connection.
type Envelope struct {
	Op   string `json:"op"`
	Seq  uint64 `json:"seq,omitempty"`
	View uint64 `json:"view,omitempty"`
	Err  string `json:"err,omitempty"`

	// register (agent → daemon)
	Role   string `json:"role,omitempty"` // "store" or "switch"
	Name   string `json:"name,omitempty"` // configured member name
	Data   string `json:"data,omitempty"` // member's UDP data address
	Shards int    `json:"shards,omitempty"`
	WAL    bool   `json:"wal,omitempty"`
	// Token authenticates the register envelope when the daemon runs
	// with -auth-token; compared constant-time, rejected on mismatch.
	Token string `json:"token,omitempty"`

	// set-next (daemon → store agent): relink the chain successor and
	// announce the member's position. Pos 0 is the head.
	Next string `json:"next,omitempty"`
	Pos  int    `json:"pos,omitempty"`

	// export / install / digest (rejoin resync)
	Updates []repl.Update `json:"updates,omitempty"`
	Replace bool          `json:"replace,omitempty"`
	Applied int           `json:"applied,omitempty"`
	Digest  uint64        `json:"digest,omitempty"`

	// ping reply: the member's metric snapshot
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`

	// routing (daemon → switch): heads[i] is chain i's head data
	// address; the flow→chain ring is reconstructed client-side from
	// (len(heads), vnodes), which flowspace.New builds deterministically.
	Epoch  uint64   `json:"epoch,omitempty"`
	Heads  []string `json:"heads,omitempty"`
	Vnodes int      `json:"vnodes,omitempty"`
}

// Protocol op names.
const (
	OpRegister = "register" // agent → daemon, first envelope on a conn
	OpWelcome  = "welcome"  // daemon → agent, register accepted
	OpPing     = "ping"     // daemon → agent liveness probe
	OpSetNext  = "set-next" // daemon → store: relink successor, announce pos/view
	OpExport   = "export"   // daemon → store: snapshot replicated state
	OpInstall  = "install"  // daemon → store: apply a peer's snapshot
	OpDigest   = "digest"   // daemon → store: hash committed state
	OpRouting  = "routing"  // daemon → switch: epoch-numbered head list
	OpAck      = "ack"      // agent → daemon reply (Seq echoes the command)
)

// MaxEnvelope bounds one JSON line; a full state export rides in a
// single envelope, so this is generous.
const MaxEnvelope = 64 << 20

// conn wraps a TCP connection with line-oriented JSON send/receive.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// send writes one envelope as a JSON line. Callers serialize sends per
// connection.
func (c *conn) send(e *Envelope) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = c.c.Write(b)
	return err
}

// recv reads the next envelope. A line beyond MaxEnvelope is an error,
// not an allocation bomb.
func (c *conn) recv() (*Envelope, error) {
	line, err := readLine(c.br, MaxEnvelope)
	if err != nil {
		return nil, err
	}
	e := new(Envelope)
	if err := json.Unmarshal(line, e); err != nil {
		return nil, err
	}
	return e, nil
}

func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			return buf[:len(buf)-1], nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
		if len(buf) > max {
			return nil, errEnvelopeTooBig
		}
	}
}

var errEnvelopeTooBig = &net.OpError{Op: "read", Err: errTooBig{}}

type errTooBig struct{}

func (errTooBig) Error() string { return "ctl: envelope exceeds MaxEnvelope" }
