package store

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"redplane/internal/flowspace"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/repl"
)

// Cluster is a sharded state store: flow keys hash across Shards shards,
// and each shard is served by a replication group of Replicas servers
// (a chain by default; see internal/repl). Topology construction places
// the servers on racks and wires their ports; Cluster only handles shard
// math and server bookkeeping.
type Cluster struct {
	shards   int
	replicas int
	// engine names the replication engine every server runs (a
	// repl.Engine* constant), recorded at construction for
	// engine-dependent bookkeeping (resync source, view reconcile).
	engine string
	// servers[shard][replica]; the replica order is the construction-time
	// group order. Which replicas currently form the group — and who
	// serves — is the shard's view.
	servers [][]*Server
	// all caches the flattened servers slice: it is rebuilt never (the
	// server set is immutable; only views change), so per-interval stats
	// and shed polling don't reallocate it on every call.
	all []*Server
	// views[shard] is the current replication view: a monotonically
	// increasing view number plus the member replica indices in group
	// order. The number fences stale senders; see repl.Msg.ViewNum.
	views []chainView
	// table, when set, replaces the static hash-mod-shards routing with
	// the flow-space consistent-hash table: chains own ring arcs, and
	// live migration can move arcs between them. See UseTable.
	table *flowspace.Table
}

// chainView is one shard's replication-group configuration: member
// replica indices in group order (serving replica first) under a fencing
// view number.
type chainView struct {
	num     uint64
	members []int
}

// NewCluster builds the servers for a shards x replicas store. Addresses
// are assigned by the caller via the addr function (shard, replica) →
// IP. Lease and service parameters apply to every server; opts select
// the replication engine and durability for all of them.
func NewCluster(sim *netsim.Sim, shards, replicas int, cfg Config,
	service time.Duration, addr func(shard, replica int) packet.Addr,
	opts ...Option) *Cluster {
	c := &Cluster{shards: shards, replicas: replicas}
	o := applyOptions(opts)
	for sh := 0; sh < shards; sh++ {
		var row []*Server
		for r := 0; r < replicas; r++ {
			// Every replica gets its own Shard state; the engine keeps
			// them convergent.
			srv := newServerRaw(sim, serverName(sh, r), addr(sh, r), NewShard(cfg), service)
			o.configure(srv, sh, r)
			row = append(row, srv)
		}
		c.servers = append(c.servers, row)
		c.all = append(c.all, row...)
	}
	c.engine = o.engine
	if c.engine == "" {
		c.engine = repl.EngineChain
	}
	c.views = make([]chainView, shards)
	for sh := 0; sh < shards; sh++ {
		members := make([]int, replicas)
		for r := range members {
			members[r] = r
		}
		// Install the initial view (number 1): it links each chain and
		// fences every server to it from the start.
		c.SetView(sh, members)
	}
	return c
}

func serverName(shard, replica int) string {
	return fmt.Sprintf("store-%d-%d", shard, replica)
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.shards }

// UseTable routes the cluster through an epoch-numbered flow-space
// table (consistent-hash ring) instead of the static hash: a shard is a
// chain owning ring arcs, and the membership coordinator may move arcs
// — with their durable state and leases — between chains at runtime.
// Every server gets an ownership gate tied to the shared table, so a
// request that reaches a non-owner (stale epoch, fenced mid-migration
// range) is dropped for the retransmit path to redirect. The table must
// route over exactly this cluster's chain count.
//
// With one chain the table maps every key to chain 0 — exactly what the
// static hash does — so single-chain deployments behave identically
// routed either way (the chaos harness asserts byte-identical
// verdicts).
func (c *Cluster) UseTable(t *flowspace.Table) {
	if t.Chains() > c.shards {
		panic("store: flow-space table routes over more chains than the cluster has")
	}
	c.table = t
	for sh := range c.servers {
		sh := sh
		check := func(key packet.FiveTuple) bool {
			return c.table.ChainFor(key) == sh && !c.table.Fenced(key)
		}
		for _, srv := range c.servers[sh] {
			srv.SetRouteCheck(check)
		}
	}
}

// ShardFor maps a flow key to its shard index ("It identifies the
// corresponding state store server by hashing the flow key", §5.1) —
// through the flow-space table when one is installed, else the static
// hash over the fixed shard count.
func (c *Cluster) ShardFor(key packet.FiveTuple) int {
	if c.table != nil {
		return c.table.ChainFor(key)
	}
	return int(key.SymmetricHash() % uint64(c.shards))
}

// SetView installs a new replication view for a shard: members are the
// replica indices forming the group, serving replica first. The view
// number bumps, every member is relinked and fenced to the new number,
// and non-members are unlinked and marked out (their requests and engine
// messages drop until they rejoin). Returns the new view number.
func (c *Cluster) SetView(shard int, members []int) uint64 {
	v := &c.views[shard]
	v.num++
	v.members = append(v.members[:0], members...)
	row := c.servers[shard]
	group := make([]*Server, len(members))
	for i, m := range members {
		group[i] = row[m]
	}
	inView := make(map[int]bool, len(members))
	for i, m := range members {
		inView[m] = true
		var next *Server
		if i+1 < len(members) {
			next = row[members[i+1]]
		}
		row[m].SetNext(next)
		row[m].SetGroup(group, i)
		row[m].SetView(v.num, true)
	}
	for r, srv := range row {
		if !inView[r] {
			srv.SetNext(nil)
			srv.SetGroup(nil, -1)
			srv.SetView(v.num, false)
		}
	}
	if c.engine == repl.EngineQuorum {
		c.reconcile(shard)
	}
	return v.num
}

// reconcileGbit is the modeled bandwidth of the view-change state
// transfer: the sweep below charges each member bytes-proportional
// virtual time at this rate (a 10 Gbit/s replica-to-replica link), so a
// quorum failover's catch-up copy stalls the group in simulated time
// the way the rejoin path (ResyncDelay) and chain propagation already
// do. EXPERIMENTS.md carries the failover numbers this feeds.
const reconcileGbit = 10

// updateXferBytes is one reconciled flow state's modeled transfer size:
// key (13) + seq/owner/expiry bookkeeping (16) plus the register and
// snapshot values.
func updateXferBytes(up Update) int64 {
	return int64(29 + 8*len(up.Vals) + 8*len(up.SnapVals))
}

// reconcile converges a quorum shard's members on view change: for every
// flow any member holds, the per-flow state with the highest sequence
// number — taken over ALL members, not just the new leader — is copied
// to members that lag it. This is the new-leader catch-up a full Raft
// would get from log transfer: a majority-acknowledged write lives on at
// least one surviving member of any majority, so the max-sequence sweep
// finds it even when the member the switches will now address missed it.
// Chain views skip this — chain propagation already orders replicas'
// states by prefix.
//
// The state copy itself applies synchronously (the view is not usable
// until its members agree), but it is not free: every member is charged
// virtual busy time proportional to the bytes it sent or received at
// reconcileGbit, so requests arriving during the catch-up queue behind
// the transfer exactly as they queue behind any other service work.
func (c *Cluster) reconcile(shard int) {
	row := c.servers[shard]
	members := c.views[shard].members
	if len(members) < 2 {
		return
	}
	var keys []packet.FiveTuple
	seen := make(map[packet.FiveTuple]bool)
	for _, m := range members {
		for _, k := range row[m].Shard().ReplicatedKeys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	// xfer[m] accumulates the bytes member m moved during the sweep:
	// received copies it lagged on, plus sent copies when it was the
	// freshest holder.
	xfer := make(map[int]int64, len(members))
	for _, k := range keys {
		var best Update
		bestFrom := -1
		for _, m := range members {
			if up, ok := row[m].Shard().ExportUpdate(k); ok {
				if bestFrom < 0 || up.LastSeq > best.LastSeq {
					best, bestFrom = up, m
				}
			}
		}
		if bestFrom < 0 {
			continue
		}
		for _, m := range members {
			up, ok := row[m].Shard().ExportUpdate(k)
			if !ok || up.LastSeq < best.LastSeq {
				row[m].applyReconciled(best)
				sz := updateXferBytes(best)
				xfer[m] += sz
				xfer[bestFrom] += sz
			}
		}
	}
	for _, m := range members {
		if bytes := xfer[m]; bytes > 0 {
			row[m].chargeBusy(netsim.Time((bytes*8 + reconcileGbit - 1) / reconcileGbit))
		}
	}
}

// Engine returns the name of the replication engine the cluster runs.
func (c *Cluster) Engine() string { return c.engine }

// ResyncSource returns the member a rejoining replica should clone from
// under the current view: the tail for chain (the replica guaranteed to
// hold only released state), the leader for quorum (the only replica
// guaranteed to hold every released write).
func (c *Cluster) ResyncSource(shard int) *Server {
	m := c.views[shard].members
	return c.servers[shard][m[repl.ResyncSourcePos(c.engine, len(m))]]
}

// ViewNum returns a shard's current view number.
func (c *Cluster) ViewNum(shard int) uint64 { return c.views[shard].num }

// ViewMembers returns a copy of a shard's current chain membership,
// head first.
func (c *Cluster) ViewMembers(shard int) []int {
	return append([]int(nil), c.views[shard].members...)
}

// Head returns the chain head server for a shard under the current
// view: the server switches address their requests to.
func (c *Cluster) Head(shard int) *Server {
	return c.servers[shard][c.views[shard].members[0]]
}

// Tail returns the chain tail for a shard under the current view.
func (c *Cluster) Tail(shard int) *Server {
	m := c.views[shard].members
	return c.servers[shard][m[len(m)-1]]
}

// Server returns a specific replica.
func (c *Cluster) Server(shard, replica int) *Server { return c.servers[shard][replica] }

// All returns every server, row by row — members of the current views
// and spliced-out replicas alike. The slice is shared and cached;
// callers must not mutate it.
func (c *Cluster) All() []*Server { return c.all }

// HeadAddrFor returns the IP a switch should send requests for key to.
// This is the switches' per-five-tuple routing consult; under
// flow-space routing it also charges the key's ring arc one unit of
// load — the rebalancer's heavy-hitter signal.
func (c *Cluster) HeadAddrFor(key packet.FiveTuple) (packet.Addr, int) {
	if c.table != nil {
		c.table.Record(key)
	}
	sh := c.ShardFor(key)
	return c.Head(sh).IP, sh
}

// Replicas returns the chain length.
func (c *Cluster) Replicas() int { return c.replicas }

// ChainDigests returns the per-replica state digests of every shard's
// chain, [shard][replica] with replica 0 the head. After quiescence a
// healthy chain's digests are all equal; see (*Shard).Digest.
func (c *Cluster) ChainDigests() [][]uint64 {
	out := make([][]uint64, c.shards)
	for sh, row := range c.servers {
		ds := make([]uint64, len(row))
		for r, srv := range row {
			ds[r] = srv.Shard().Digest()
		}
		out[sh] = ds
	}
	return out
}

// ChainAgreement checks that every replica of every shard digests
// identically, returning an error for the first divergent shard found
// that names every diverging replica and both digests. Valid only after
// quiescence with all servers recovered.
func (c *Cluster) ChainAgreement() error {
	for sh, ds := range c.ChainDigests() {
		var div []string
		for r := 1; r < len(ds); r++ {
			if ds[r] != ds[0] {
				div = append(div, fmt.Sprintf("replica %d digest %#x", r, ds[r]))
			}
		}
		if div != nil {
			return fmt.Errorf("store shard %d (%s engine) diverged from replica 0 digest %#x: %s",
				sh, c.engine, ds[0], strings.Join(div, ", "))
		}
	}
	return nil
}

// Stats snapshots every server, row by row (chain head first).
func (c *Cluster) Stats() []ServerStats {
	out := make([]ServerStats, 0, c.shards*c.replicas)
	for _, s := range c.All() {
		out = append(out, s.Stats())
	}
	return out
}
