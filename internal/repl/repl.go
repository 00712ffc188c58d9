// Package repl defines the replication-engine abstraction behind
// RedPlane's state store: the Replicator interface a store server drives
// to make committed updates fault tolerant, the wire messages engines
// exchange, and the Config deployments select an engine and group size
// with.
//
// Two engines implement the contract today (internal/store holds the
// transport glue):
//
//   - "chain": the paper's chain replication (§6). Committed updates and
//     their held outputs travel head → tail; the tail releases outputs,
//     so an acknowledged write has reached every chain member.
//   - "quorum": a leader-based majority-ack replicator with Raft-style
//     log semantics simplified to the store's per-flow update stream.
//     The leader broadcasts appends to its followers and releases
//     outputs in log order once a majority (counting itself) has made
//     the entry durable.
//
// Both engines preserve the store's durability ordering — each replica's
// durable state is a superset of everything it has forwarded or
// acknowledged — and both fence stale views by number. Their fault
// envelopes differ: chain keeps all guarantees with any single live
// member (an acknowledged write reached every member), while quorum
// guarantees an acknowledged write only on some majority, so the
// membership coordinator refuses to seat a quorum view smaller than a
// majority of the full replica set and the group stalls (never lies)
// below that. Within the envelope both engines share — every view the
// coordinator installs — the chaos harness's invariants (no
// acknowledged write lost, replica agreement after quiescence,
// monotonic acks) must hold identically on either: any verdict
// divergence between engines on the same seeded campaign is a bug in
// one of them, and the harness asserts equivalence.
package repl

import (
	"fmt"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// Output is a message a shard wants delivered to a switch. Engines hold
// outputs until their covering updates satisfy the engine's commit rule.
// The message is held by value, so a shard appends outputs into a slice
// its caller reuses without allocating one message per acknowledgment.
type Output struct {
	// DstSwitch is the switch ID the message is addressed to.
	DstSwitch int
	Msg       wire.Message
}

// Update describes a state mutation for replication: peers apply it
// verbatim so every replica converges. It carries the flow's full
// post-state (not a delta), which is what lets retransmissions and
// view-change reconciliation re-propagate convergence for free.
type Update struct {
	Key         packet.FiveTuple
	Vals        []uint64
	LastSeq     uint64
	Owner       int
	LeaseExpiry int64
	Exists      bool

	// Snapshot slot writes: SnapVals apply to consecutive slots starting
	// at SnapSlot (zero HasSnap means none).
	SnapEpoch uint32
	SnapSlot  uint32
	SnapVals  []uint64
	HasSnap   bool
}

// Engine names selectable via Config.Engine and the -engine CLI flags.
const (
	// EngineChain is the default chain-replication engine.
	EngineChain = "chain"
	// EngineQuorum is the leader-based majority-ack engine.
	EngineQuorum = "quorum"
)

// Msg is a replication-engine peer message: anything an engine sends to
// another replica of the same group. ViewNum is the sender's view at
// send time; the receiving server fences messages from any other view
// before handing them to its engine, which is what keeps a replica that
// was spliced out of the group (but doesn't know it yet) from mutating
// state or releasing acknowledgments.
type Msg interface {
	// WireLen is the message's simulated frame size in bytes.
	WireLen() int
	// ViewNum is the view the sender stamped at send time.
	ViewNum() uint64
}

// Replicator is the replication-engine contract: what a store server
// needs from replication and nothing more. Implementations are
// single-threaded like the server that drives them: every method runs
// on the goroutine that owns the shard. Today that is the simulator's
// event loop — the real-UDP store speaks the chain engine's protocol
// (ChainMsg as a datagram, see store.UDPServer) without going through
// this interface yet.
type Replicator interface {
	// Name returns the engine name (EngineChain, EngineQuorum, ...).
	Name() string

	// CanServe reports whether this replica may process switch requests
	// under the current view: the chain serves at every member (requests
	// are addressed to the head), the quorum engine only at the leader.
	CanServe() bool

	// Commit proposes locally committed updates and the outputs held on
	// their behalf. The engine replicates the updates to its peers and
	// releases the outputs once its commit rule is satisfied — at the
	// chain tail, or at majority acknowledgment. Outputs the engine
	// drops (view change, lost quorum) are re-driven by the switches'
	// retransmissions; they were never acknowledged.
	Commit(ups []Update, outs []Output)

	// Handle processes a peer message. The server has already fenced
	// messages from other views and counted them as stale-view drops.
	Handle(m Msg)

	// ViewChanged notifies the engine its server's view moved: view is
	// the new number, member whether the server is still part of the
	// replication group. Engines drop in-flight commit state here —
	// entries pending under the old view carry no acknowledgment
	// promise.
	ViewChanged(view uint64, member bool)

	// Crashed notifies the engine its server crashed: volatile commit
	// state (pending entries, unreleased outputs) is gone. Durable state
	// is the server's problem; the engine only forgets what it was
	// waiting on.
	Crashed()
}

// Config selects a deployment's replication engine and group size. The
// zero value selects the defaults the prototype ran with: a 3-member
// chain.
type Config struct {
	// Engine selects the replication engine (EngineChain, EngineQuorum;
	// empty means EngineChain).
	Engine string

	// Replicas is the replication group size per shard (default 3, as
	// in the paper's §6 prototype).
	Replicas int
}

// WithDefaults fills zero fields with the prototype's values. It is the
// one place the default group size is applied.
func (c Config) WithDefaults() Config {
	if c.Engine == "" {
		c.Engine = EngineChain
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	return c
}

// Validate rejects unknown engine names and nonsensical shapes.
func (c Config) Validate() error {
	switch c.Engine {
	case "", EngineChain, EngineQuorum:
	default:
		return fmt.Errorf("repl: unknown engine %q (want %q or %q)",
			c.Engine, EngineChain, EngineQuorum)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("repl: negative replicas %d", c.Replicas)
	}
	return nil
}

// ResyncSourcePos returns the position, in view-member order, of the
// replica a rejoining member clones its state from: the tail for the
// chain (the member whose state every acknowledged write has reached)
// and the leader for the quorum engine (the only member guaranteed to
// hold every majority-acknowledged entry after reconciliation).
func ResyncSourcePos(engine string, members int) int {
	if engine == EngineQuorum {
		return 0
	}
	return members - 1
}
