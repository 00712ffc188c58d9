package store

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"redplane/internal/wire"
)

// UDPClient is the switch side of the real-UDP deployment: it sends
// protocol requests to a store server (the chain head) and awaits the
// matching acknowledgment, retransmitting on timeout like the switch's
// mirror mechanism does. A client serializes its requests (concurrent
// Requests on one socket would steal each other's acks), so the encode
// and receive buffers are reused across calls.
type UDPClient struct {
	conn     *net.UDPConn
	head     *net.UDPAddr
	switchID int

	// Timeout is the first attempt's ack wait; Retries bounds
	// retransmission. Each retry doubles the wait up to Timeout <<
	// BackoffCap, with ±25% jitter from a per-client deterministic seed
	// — under sustained loss the contending switches desynchronize
	// instead of re-firing in lockstep every cadence.
	Timeout    time.Duration
	Retries    int
	BackoffCap uint

	rng *rand.Rand // deterministic jitter source (seeded by switch ID)

	enc []byte // reusable request encode buffer
	rcv []byte // reusable datagram receive buffer
}

// DialUDP creates a client for the given switch ID talking to the store
// chain head at addr. The socket is unconnected: with chain replication
// the acknowledgment arrives from the TAIL's address, not the head's.
func DialUDP(addr string, switchID int) (*UDPClient, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("store: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("store: bind: %w", err)
	}
	return &UDPClient{conn: conn, head: ua, switchID: switchID,
		Timeout: 200 * time.Millisecond, Retries: 10, BackoffCap: 5,
		rng: rand.New(rand.NewSource(0x5EED + int64(switchID)))}, nil
}

// backoffWait returns the jittered ack wait for the given attempt.
func (c *UDPClient) backoffWait(attempt int) time.Duration {
	shift := uint(attempt)
	if shift > c.BackoffCap {
		shift = c.BackoffCap
	}
	d := c.Timeout << shift
	return time.Duration(float64(d) * (0.75 + 0.5*c.rng.Float64()))
}

// Close releases the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }

// ErrTimeout reports that no acknowledgment arrived within the retry
// budget. Returned errors are *TimeoutError values wrapping it, so
// errors.Is(err, ErrTimeout) matches and errors.As recovers the attempt
// count and final deadline.
var ErrTimeout = errors.New("store: request timed out")

// TimeoutError carries how a request's retry budget was spent.
type TimeoutError struct {
	// Attempts is how many datagrams were sent (1 + retransmissions).
	Attempts int
	// LastDeadline is the wall-clock instant the final wait expired.
	LastDeadline time.Time
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("store: request timed out after %d attempts (last deadline %s)",
		e.Attempts, e.LastDeadline.Format(time.RFC3339Nano))
}

func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Request sends m and returns the acknowledgment matching its type and
// covering its sequence number, retransmitting on timeout (§5.2's
// sequencing makes duplicates harmless). It is the one-message batch.
func (c *UDPClient) Request(m *wire.Message) (*wire.Message, error) {
	acks, err := c.RequestBatch([]*wire.Message{m})
	if err != nil {
		return nil, err
	}
	return acks[0], nil
}

// decodeAcks parses a received datagram into its acknowledgment
// messages: one for a plain frame, several for a batch reply from a
// chain tail. Garbage decodes to nothing.
func decodeAcks(b []byte) []*wire.Message {
	if wire.IsBatch(b) {
		var bt wire.Batch
		if err := bt.Unmarshal(b); err != nil {
			return nil
		}
		return bt.Msgs
	}
	m := new(wire.Message)
	if err := m.Unmarshal(b); err != nil {
		return nil
	}
	return []*wire.Message{m}
}

// matchAck reports whether ack settles request m.
func matchAck(ack, m *wire.Message) bool {
	if ack.Key != m.Key {
		return false
	}
	if ack.Type == wire.MsgLeaseReject {
		return true
	}
	return ack.Type == wire.AckFor(m.Type) && ack.Seq >= m.Seq
}

// RequestBatch sends msgs as one datagram — a batch, or the plain frame
// for a lone message — and waits until every member is acknowledged,
// retransmitting the whole datagram on timeout (§5.2's sequencing makes
// the duplicates harmless). Acks are returned positionally: acks[i]
// settles msgs[i].
func (c *UDPClient) RequestBatch(msgs []*wire.Message) ([]*wire.Message, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	for _, m := range msgs {
		m.SwitchID = c.switchID
		if wire.AckFor(m.Type) == 0 {
			return nil, fmt.Errorf("store: %v is not a request", m.Type)
		}
	}
	var req []byte
	if len(msgs) == 1 {
		req = msgs[0].Marshal(c.enc[:0])
	} else {
		bt := wire.Batch{Msgs: msgs}
		req = bt.Marshal(c.enc[:0])
	}
	c.enc = req
	if c.rcv == nil {
		c.rcv = make([]byte, 65536)
	}
	buf := c.rcv
	acks := make([]*wire.Message, len(msgs))
	remaining := len(msgs)
	var deadline time.Time
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if _, err := c.conn.WriteToUDP(req, c.head); err != nil {
			return nil, fmt.Errorf("store: send: %w", err)
		}
		deadline = time.Now().Add(c.backoffWait(attempt))
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, _, err := c.conn.ReadFromUDP(buf)
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					break // retransmit
				}
				return nil, fmt.Errorf("store: recv: %w", err)
			}
			for _, ack := range decodeAcks(buf[:n]) {
				for i, m := range msgs {
					if acks[i] == nil && matchAck(ack, m) {
						acks[i] = ack
						remaining--
						break
					}
				}
			}
			if remaining == 0 {
				return acks, nil
			}
		}
	}
	return nil, &TimeoutError{Attempts: c.Retries + 1, LastDeadline: deadline}
}

// HelloUDP performs the deployment handshake against addr: one
// round-trip asking a store server its shard count and chain role.
func HelloUDP(addr string, timeout time.Duration) (HelloInfo, error) {
	c, err := DialUDP(addr, 0)
	if err != nil {
		return HelloInfo{}, err
	}
	defer c.Close()
	if timeout > 0 {
		c.Timeout = timeout
	}
	ack, err := c.Request(&wire.Message{Type: wire.MsgHello, Seq: 1})
	if err != nil {
		return HelloInfo{}, err
	}
	return parseHelloAck(ack)
}

// VerifyDeployTarget runs the hello handshake against addr and rejects
// a target that cannot correctly terminate direct switch traffic:
// a shard-count mismatch (the client's flow→shard spread no longer
// matches the server's, silently unbalancing it), or a non-head chain
// member (direct writes would bypass the head's relay ordering).
// wantShards <= 0 skips the shard check.
func VerifyDeployTarget(addr string, wantShards int, timeout time.Duration) (HelloInfo, error) {
	hi, err := HelloUDP(addr, timeout)
	if err != nil {
		return hi, fmt.Errorf("store: hello %s: %w", addr, err)
	}
	if wantShards > 0 && hi.Shards != wantShards {
		return hi, fmt.Errorf("store: %s serves %d shards but the client assumes %d — fix -shards on one side", addr, hi.Shards, wantShards)
	}
	if hi.ChainPos > 0 {
		return hi, fmt.Errorf("store: %s is chain position %d, not the head — aim traffic at the head", addr, hi.ChainPos)
	}
	if hi.ChainPos < 0 && hi.RelaySeen {
		return hi, fmt.Errorf("store: %s has received chain-relayed traffic (mid-chain or tail) — aim traffic at the head", addr)
	}
	return hi, nil
}
