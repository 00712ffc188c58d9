// Package redplane is a fault-tolerant state store for stateful in-switch
// applications, reproducing "RedPlane: Enabling Fault-Tolerant Stateful
// In-Switch Applications" (SIGCOMM 2021) in Go.
//
// Stateful applications running on programmable switches — NATs,
// firewalls, load balancers, cellular gateways, monitors — lose their
// state when a switch fails or traffic reroutes, breaking connections en
// masse. RedPlane continuously replicates per-flow state updates from the
// switch data plane to an external state store built on commodity
// servers, giving applications consistent access to their state wherever
// their traffic lands: the illusion of one big fault-tolerant switch.
//
// Applications implement the App interface (a deterministic transition
// function from input packet and current state to output packets and new
// state, partitioned by a per-packet flow key) and choose a consistency
// mode: Linearizable, which records every state update durably before the
// corresponding output is released, or BoundedInconsistency, which
// asynchronously replicates periodic snapshots of approximate structures
// like sketches.
//
// The package runs deployments on a deterministic discrete-event network
// simulator with the paper's evaluation topology: programmable switches
// in the aggregation layer, ECMP routing, and a sharded,
// chain-replicated state store on rack servers. See the examples
// directory for runnable end-to-end scenarios and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package redplane

import (
	"redplane/internal/core"
	"redplane/internal/netsim"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/repl"
	"redplane/internal/store"
)

// App is a stateful in-switch application; see internal/core.App for the
// contract. Implementations are plain Go values: the deployment installs
// one instance per switch.
type App = core.App

// SnapshotApp is an App that additionally exposes lazily-snapshotted
// structures for bounded-inconsistency replication.
type SnapshotApp = core.SnapshotApp

// SnapshotPartition pairs a snapshot-replicated structure with its store
// key.
type SnapshotPartition = core.SnapshotPartition

// SnapshotSource is a structure supporting consistent snapshots under
// concurrent updates (internal/sketch provides implementations).
type SnapshotSource = core.SnapshotSource

// Mode selects a consistency mode.
type Mode = core.Mode

// Consistency modes (§4 of the paper).
const (
	// Linearizable provides per-flow linearizability: behavior
	// indistinguishable from a single switch that never fails.
	Linearizable = core.Linearizable
	// BoundedInconsistency permits up to one snapshot period of updates
	// to be lost on failure, recovering to a consistent snapshot.
	BoundedInconsistency = core.BoundedInconsistency
)

// InstallPath says how migrated state installs into the data plane.
type InstallPath = core.InstallPath

// Install paths.
const (
	// InstallRegister installs entirely in the data plane.
	InstallRegister = core.InstallRegister
	// InstallTable routes through the switch control plane, adding its
	// latency to a flow's first packet.
	InstallTable = core.InstallTable
)

// ProtocolConfig tunes the replication protocol (lease period, renewal
// interval, retransmission timeout, snapshot period).
type ProtocolConfig = core.Config

// DefaultProtocolConfig returns the paper's parameters: 1 s leases,
// 0.5 s renewals, 1 ms snapshots.
func DefaultProtocolConfig() ProtocolConfig { return core.DefaultConfig() }

// History records input/output events for offline correctness checking;
// CheckCounterLinearizable validates per-flow linearizability of counter
// histories (Definitions 2-4 of the paper).
type History = core.History

// WriteJournal records acknowledged replicated writes across all
// switches; JournalEntry is one such write. Enabled by
// DeploymentConfig.RecordJournal and consumed by internal/chaos's
// no-lost-write checker.
type (
	WriteJournal = core.WriteJournal
	JournalEntry = core.JournalEntry
)

// Packet is the simulated network packet.
type Packet = packet.Packet

// FiveTuple is the canonical per-flow partition key.
type FiveTuple = packet.FiveTuple

// Addr is an IPv4 address.
type Addr = packet.Addr

// MakeAddr builds an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr { return packet.MakeAddr(a, b, c, d) }

// Time is virtual simulation time in nanoseconds.
type Time = netsim.Time

// SwitchStats is the per-switch counter snapshot returned by
// Switch.Stats().
type SwitchStats = core.SwitchStats

// StoreServerStats is the per-store-server counter snapshot returned by
// Cluster.Stats().
type StoreServerStats = store.ServerStats

// Replicator is the replication-engine contract the state store drives;
// see internal/repl for the two built-in engines, selected by name.
type Replicator = repl.Replicator

// ReplicationConfig selects a deployment's replication engine and group
// size, as DeploymentConfig.Replication.
type ReplicationConfig = repl.Config

// Replication engine names for ReplicationConfig.Engine and the CLI
// -engine flags.
const (
	// EngineChain is the paper's chain replication (the default).
	EngineChain = repl.EngineChain
	// EngineQuorum is the leader-based majority-acknowledgment engine.
	EngineQuorum = repl.EngineQuorum
)

// Registry is the observability registry returned by
// Deployment.Observe(): namespaced counters and gauges, sampled series,
// and the event tracer.
type Registry = obs.Registry

// Tracer is the bounded ring buffer of protocol events.
type Tracer = obs.Tracer

// TraceEvent is one traced protocol event, stamped with virtual time.
type TraceEvent = obs.Event

// TraceEventType discriminates protocol events (lease grant, replication
// send, retransmit, failure, ...).
type TraceEventType = obs.EventType

// Series is a sampled gauge timeline (virtual-time/value pairs).
type Series = obs.Series
