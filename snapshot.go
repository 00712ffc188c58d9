package redplane

// DeploymentSnapshot is a point-in-time view of the whole testbed: one
// SwitchStats per programmable switch, one StoreServerStats per store
// replica (chain order, head first), and cross-component totals. It is
// the deployment-level counterpart of Switch.Stats().
type DeploymentSnapshot struct {
	// At is the virtual time the snapshot was taken.
	At Time

	Switches []SwitchStats
	Store    []StoreServerStats

	Totals SnapshotTotals
}

// SnapshotTotals aggregates the counters experiments usually want
// whole-deployment answers for. Store-side lease and replication
// counters only advance on the chain head (replicas apply updates
// without reprocessing), so summing over all servers does not double
// count.
type SnapshotTotals struct {
	// Switch-side.
	PacketsIn, PacketsOut  uint64
	ReplSends, Retransmits uint64
	EmulatedDrops          uint64
	LeaseAcquired          uint64
	BufferedReads          uint64
	SnapshotPackets        uint64
	MirrorOverflow         uint64
	// EgressBatches/EgressMsgs count coalesced protocol datagrams and
	// the messages they carried (zero with batching off).
	EgressBatches, EgressMsgs uint64

	// Store-side.
	LeaseGrants, LeaseRenewals uint64
	LeaseMigrated              uint64
	ReplApplied, ReplStale     uint64
	StoreDroppedRequests       uint64
	// StoreShedMsgs counts messages shed by the bounded store ingress
	// queue (a subset of StoreDroppedRequests' causes, counted per
	// message even when a whole batch is shed).
	StoreShedMsgs uint64
	// StoreOverlappingGrants counts leases granted while another
	// unexpired lease existed — always zero for a correct protocol (the
	// chaos harness asserts this).
	StoreOverlappingGrants uint64
	// StoreWALBytes sums durable write-ahead-log bytes over all servers
	// (zero with durability off).
	StoreWALBytes uint64
	// StoreStaleViewDrops counts chain/request messages fenced for
	// carrying a stale view number or arriving at a spliced-out replica.
	StoreStaleViewDrops uint64
	// Membership reflects the chain coordinator's activity (zero values
	// without StoreMembership).
	MemberViewChanges uint64
	MemberSpliceOuts  uint64
	MemberRejoins     uint64
	MemberResyncFlows uint64
}

// Snapshot captures the current counters of every switch and store
// server plus deployment-wide totals.
func (d *Deployment) Snapshot() DeploymentSnapshot {
	snap := DeploymentSnapshot{At: d.Sim.Now()}
	for _, sw := range d.switches {
		st := sw.Stats()
		snap.Switches = append(snap.Switches, st)
		snap.Totals.PacketsIn += st.PacketsIn
		snap.Totals.PacketsOut += st.PacketsOut
		snap.Totals.ReplSends += st.ReplSends
		snap.Totals.Retransmits += st.Retransmits
		snap.Totals.EmulatedDrops += st.EmulatedDrops
		snap.Totals.LeaseAcquired += st.LeaseAcquired
		snap.Totals.BufferedReads += st.BufferedReads
		snap.Totals.SnapshotPackets += st.SnapshotPackets
		snap.Totals.MirrorOverflow += st.MirrorOverflow
		snap.Totals.EgressBatches += st.EgressBatches
		snap.Totals.EgressMsgs += st.EgressMsgs
	}
	if d.Cluster != nil {
		for _, st := range d.Cluster.Stats() {
			snap.Store = append(snap.Store, st)
			snap.Totals.LeaseGrants += st.Shard.LeaseGrants
			snap.Totals.LeaseRenewals += st.Shard.LeaseRenewals
			snap.Totals.LeaseMigrated += st.Shard.LeaseMigrated
			snap.Totals.ReplApplied += st.Shard.ReplApplied
			snap.Totals.ReplStale += st.Shard.ReplStale
			snap.Totals.StoreDroppedRequests += st.DroppedRequests
			snap.Totals.StoreShedMsgs += st.ShedMsgs
			snap.Totals.StoreOverlappingGrants += st.Shard.OverlappingGrants
			snap.Totals.StoreWALBytes += st.WALBytes
			snap.Totals.StoreStaleViewDrops += st.StaleViewDrops
		}
	}
	if d.Coordinator != nil {
		ms := d.Coordinator.Stats()
		snap.Totals.MemberViewChanges = ms.ViewChanges
		snap.Totals.MemberSpliceOuts = ms.SpliceOuts
		snap.Totals.MemberRejoins = ms.Rejoins
		snap.Totals.MemberResyncFlows = ms.ResyncFlows
	}
	return snap
}

// ChainAgreement checks that every store chain's replicas digest
// identically (nil without a store). Meaningful only after quiescence
// with all store servers recovered.
func (d *Deployment) ChainAgreement() error {
	if d.Cluster == nil {
		return nil
	}
	return d.Cluster.ChainAgreement()
}
