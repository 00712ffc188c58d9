package store

import (
	"fmt"

	"redplane/internal/durable"
	"redplane/internal/repl"
)

// Option configures a Server (or every server of a Cluster) at
// construction: which replication engine it runs and whether a
// durability layer is attached before the server sees traffic.
type Option func(*options)

type options struct {
	engine     string
	durCfg     DurabilityConfig
	newBackend func(shard, replica int) durable.Backend
}

func applyOptions(opts []Option) *options {
	o := &options{}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// configure finishes a freshly built server: durability (if requested),
// then the replication engine — in that order, so the engine is born into
// a server whose persistence layer already exists.
func (o *options) configure(s *Server, shard, replica int) {
	if o.newBackend != nil {
		if err := s.EnableDurability(o.newBackend(shard, replica), o.durCfg); err != nil {
			// A backend that cannot be opened at construction is a
			// misconfiguration, not a runtime fault.
			panic(fmt.Sprintf("store: durability for %s: %v", s.name, err))
		}
	}
	s.eng = o.buildEngine(s)
}

func (o *options) buildEngine(s *Server) repl.Replicator {
	switch o.engine {
	case "", repl.EngineChain:
		return &chainEngine{s: s}
	case repl.EngineQuorum:
		return &quorumEngine{s: s}
	default:
		panic(fmt.Sprintf("store: unknown replication engine %q", o.engine))
	}
}

// WithEngine selects a built-in replication engine by name
// (repl.EngineChain, repl.EngineQuorum). Empty means chain.
func WithEngine(name string) Option {
	return func(o *options) { o.engine = name }
}

// WithDurability attaches a persistence layer to every server built:
// newBackend is called with the server's (shard, replica) coordinates —
// (0, 0) for a standalone NewServer — so each replica gets its own
// backend, and cfg governs WAL/checkpoint/fsync behavior.
func WithDurability(cfg DurabilityConfig, newBackend func(shard, replica int) durable.Backend) Option {
	return func(o *options) {
		o.durCfg = cfg
		o.newBackend = newBackend
	}
}
