package store

import "redplane/internal/repl"

// chainEngine is the paper's chain replication (§6) behind the
// repl.Replicator seam: the head applies and forwards committed updates
// to its successor, each replica forwards after its own durability
// barrier, and the tail — where the update is durable on every replica —
// releases the outputs. View fencing and the durable ⊇ forwarded ⊇
// acked ordering live in Server.handleRepl and Server.release; this
// type only decides where a committed update goes next.
type chainEngine struct {
	s *Server
}

// Name implements repl.Replicator.
func (e *chainEngine) Name() string { return repl.EngineChain }

// CanServe implements repl.Replicator: every chain member serves
// protocol traffic (the switch addresses the head; fencing handles the
// rest).
func (e *chainEngine) CanServe() bool { return e.s.inChain }

// Commit implements repl.Replicator: a commit decided here enters the
// chain as the message a successor would have received.
func (e *chainEngine) Commit(ups []repl.Update, outs []repl.Output) {
	e.pass(&repl.ChainMsg{Ups: ups, Outs: outs})
}

// Handle implements repl.Replicator: apply a predecessor's updates, then
// pass the message on.
func (e *chainEngine) Handle(m repl.Msg) {
	c, ok := m.(*repl.ChainMsg)
	if !ok {
		return // another engine's traffic (mixed-engine misconfiguration)
	}
	for _, up := range c.Ups {
		e.s.shard.Apply(up)
	}
	e.pass(c)
}

// pass moves c on behind this replica's own durability barrier: to the
// successor, stamped with the sender's current view — re-stamped on every
// hop, so a replica that changed views between receive and send fences
// itself — or, at the tail (or unreplicated), where the updates are
// durable on every replica, its outputs to the switches.
func (e *chainEngine) pass(c *repl.ChainMsg) {
	s := e.s
	s.release(func() {
		if s.next == nil {
			s.emitAll(c.Outs)
			return
		}
		c.View = s.view
		s.sendPeer(s.next, c)
	})
}

// ViewChanged implements repl.Replicator: chain replication keeps no
// per-view commit state outside the shard.
func (e *chainEngine) ViewChanged(view uint64, member bool) {}

// Crashed implements repl.Replicator: in-flight forwards died with the
// server's pend queue.
func (e *chainEngine) Crashed() {}
