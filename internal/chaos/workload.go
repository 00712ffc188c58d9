package chaos

import (
	"math/rand"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/store"
	"redplane/internal/topo"
)

// Workload shape. Each key gets its own client source port, so the
// fabric's ECMP (which hashes the packet 5-tuple, not the KV key) pins
// each key's requests to one aggregation switch while healthy and
// spreads the keys across switches — failovers then migrate whole keys.
const (
	numKeys    = 6
	opInterval = time.Millisecond
	opTimeout  = 50 * time.Millisecond
	baseSport  = 20000
)

// wlOp is one workload operation: the driver-side record the per-key
// histories are built from. ret < 0 marks an op whose reply never
// arrived.
type wlOp struct {
	id    uint64
	key   uint64
	write bool
	val   uint64 // value written, or value returned by a completed read
	inv   int64
	ret   int64
}

// kvDriver issues known-answer KV traffic: per key, one operation at a
// time, each stamped with a globally unique op ID (carried in the packet
// Seq field, which the KV app echoes). Written values are id+1 — unique
// and never the initial register value 0 — so reads identify exactly
// which write they observed.
type kvDriver struct {
	d      *redplane.Deployment
	client *topo.Host
	anchor *topo.Host
	rng    *rand.Rand

	ops     []*wlOp
	pending map[uint64]*wlOp // op ID → op awaiting its reply
	cur     [numKeys]*wlOp   // latest issued op per key
	stopAt  netsim.Time      // no new ops after this (flush writes excepted)
}

func newKVDriver(d *redplane.Deployment, seed int64) *kvDriver {
	k := &kvDriver{
		d:       d,
		rng:     rand.New(rand.NewSource(seed ^ 0x6368616f73)), // decoupled from the sim's RNG
		pending: make(map[uint64]*wlOp),
	}
	k.anchor = d.AddServer(1, "chaos-anchor", redplane.MakeAddr(10, 1, 0, 77))
	k.client = d.AddClient(0, "chaos-client", redplane.MakeAddr(100, 0, 0, 1))
	k.client.Handler = k.onReply
	return k
}

func (k *kvDriver) onReply(f *netsim.Frame) {
	if f.Pkt == nil || !f.Pkt.HasKV {
		return
	}
	o, ok := k.pending[f.Pkt.Seq]
	if !ok {
		return
	}
	delete(k.pending, f.Pkt.Seq)
	o.ret = int64(k.d.Now())
	if !o.write {
		o.val = f.Pkt.KV.Val
	}
	// Only the key's latest op chains the next one; a late reply to a
	// timed-out op is recorded but drives nothing.
	if k.cur[o.key] == o {
		k.d.Sim.After(opInterval, func() { k.issueNext(o.key) })
	}
}

func (k *kvDriver) issueNext(key uint64) {
	if k.d.Now() >= k.stopAt {
		return
	}
	write := k.rng.Float64() < 0.5
	k.issue(key, write, false)
}

// issue sends one op for the key. flush ops re-arm their own retry until
// acknowledged (used during quiescence to force chain convergence).
func (k *kvDriver) issue(key uint64, write, flush bool) {
	o := &wlOp{id: uint64(len(k.ops)), key: key, write: write, inv: int64(k.d.Now()), ret: -1}
	if write {
		o.val = o.id + 1
	}
	k.ops = append(k.ops, o)
	k.pending[o.id] = o
	k.cur[key] = o

	p := packet.NewUDP(k.client.IP, k.anchor.IP, uint16(baseSport+key), packet.KVPort, 0)
	p.Seq = o.id
	p.HasKV = true
	op := packet.KVRead
	if write {
		op = packet.KVUpdate
	}
	p.KV = packet.KVHeader{Op: op, Key: key, Val: o.val}
	k.client.SendPacket(p)

	k.d.Sim.After(opTimeout, func() {
		if o.ret >= 0 || k.cur[key] != o {
			return
		}
		if flush {
			k.issue(key, true, true) // keep pushing until one write lands
		} else {
			k.issueNext(key)
		}
	})
}

// start begins the per-key op loops, phase-shifted so keys do not tick
// in lockstep.
func (k *kvDriver) start(stopAt netsim.Time) {
	k.stopAt = stopAt
	for key := 0; key < numKeys; key++ {
		key := uint64(key)
		k.d.Sim.After(time.Duration(key+1)*137*time.Microsecond, func() { k.issueNext(key) })
	}
}

// flushAll issues one write per key with retry-until-acked, forcing a
// fresh replication (and chain re-propagation) for every key after the
// last store recovery. until bounds the retries.
func (k *kvDriver) flushAll(until netsim.Time) {
	k.stopAt = until
	for key := 0; key < numKeys; key++ {
		key := uint64(key)
		k.issue(key, true, true)
	}
}

// completed counts ops that got replies.
func (k *kvDriver) completed() int {
	n := 0
	for _, o := range k.ops {
		if o.ret >= 0 {
			n++
		}
	}
	return n
}

// histories builds the per-key checker input. Completed ops enter as-is.
// Incomplete reads are dropped (no one observed them). An incomplete
// write is dropped unless some completed read returned its value — a
// crashed write may legally never take effect — and when kept, its
// return bound is the earliest such read's return: the write's
// linearization point must precede that read's, so anything invoked
// later genuinely follows it. This keeps every op's window finite and
// preserves the time-window partition.
func (k *kvDriver) histories() [numKeys][]Op {
	observedAt := make(map[uint64]int64) // written value → earliest observing read's ret
	for _, o := range k.ops {
		if o.write || o.ret < 0 || o.val == 0 {
			continue
		}
		if at, ok := observedAt[o.val]; !ok || o.ret < at {
			observedAt[o.val] = o.ret
		}
	}
	var hist [numKeys][]Op
	for _, o := range k.ops {
		ret := o.ret
		if ret < 0 {
			if !o.write {
				continue
			}
			at, ok := observedAt[o.val]
			if !ok {
				continue
			}
			ret = at
		}
		hist[o.key] = append(hist[o.key], Op{Inv: o.inv, Ret: ret, Write: o.write, Val: o.val})
	}
	return hist
}

// boundedDriver drives plain UDP traffic through AsyncCounter switches in
// bounded-inconsistency mode and keeps handles on the per-switch counter
// apps for the staleness checks.
type boundedDriver struct {
	d        *redplane.Deployment
	counters []*apps.AsyncCounter
	client   *topo.Host
	sink     *topo.Host
	sent     int
}

const boundedFlows = 8

func newBoundedDriver(cfg Config, faults []Fault) (*boundedDriver, *redplane.Deployment) {
	b := &boundedDriver{}
	proto := redplane.DefaultProtocolConfig()
	proto.LeasePeriod = leasePeriod
	proto.RenewInterval = leasePeriod / 2
	proto.SnapshotPeriod = snapshotPeriod
	if cfg.BatchWindow > 0 {
		proto.FlushWindow = cfg.BatchWindow
	}
	tuneProtoForNetEm(&proto, cfg)
	durableRun := NeedsDurability(cfg, faults)
	shards, ring := storeShape(cfg, faults)
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed: cfg.Seed,
		Mode: redplane.BoundedInconsistency,
		NewApp: func(i int) redplane.App {
			c := apps.NewAsyncCounter(i)
			b.counters = append(b.counters, c)
			return c
		},
		SnapshotSlots:   apps.NewAsyncCounter(0).Slots(),
		Protocol:        proto,
		Replication:     redplane.ReplicationConfig{Engine: cfg.Engine},
		Obs:             redplane.ObsConfig{TraceEvents: traceCap},
		StoreShards:     shards,
		FlowSpace:       ring,
		StoreDurability: store.DurabilityConfig{Enabled: durableRun},
		StoreMembership: durableRun,
		NetEm:           netemConfig(cfg, faults),
	})
	b.d = d
	b.sink = d.AddServer(1, "chaos-sink", redplane.MakeAddr(10, 1, 0, 88))
	b.client = d.AddClient(0, "chaos-udp", redplane.MakeAddr(100, 0, 0, 2))
	d.ScheduleFaultEvents(compile(faults))
	scheduleNetem(d, faults)
	// Migration injections target the per-switch counter partitions.
	// Snapshot images are deliberately NOT migrated with a range (they
	// are ε-soft state); the switch's next periodic snapshot repopulates
	// the destination chain within one period, which is inside the
	// staleness bound the checker enforces.
	scheduleMoves(d, faults, func(slot int) packet.FiveTuple {
		return packet.FiveTuple{Src: packet.Addr(slot % numSwitches),
			SrcPort: 0xAC, Proto: packet.ProtoUDP}
	})
	return b, d
}

// start offers steady UDP load across boundedFlows flows until stopAt.
func (b *boundedDriver) start(stopAt netsim.Time) {
	n := 0
	b.d.Sim.Every(netsim.Duration(warmup), netsim.Duration(200*time.Microsecond), func() bool {
		p := packet.NewUDP(b.client.IP, b.sink.IP, uint16(baseSport+n%boundedFlows), 7777, 64)
		b.client.SendPacket(p)
		b.sent++
		n++
		return b.d.Now() < stopAt
	})
}

// counterSum totals a switch's counter array.
func counterSum(c *apps.AsyncCounter) uint64 {
	var sum uint64
	arr := c.Array()
	for i := 0; i < c.Slots(); i++ {
		sum += arr.Latest(i)
	}
	return sum
}

// imageSum totals a snapshot image.
func imageSum(img []uint64) uint64 {
	var sum uint64
	for _, v := range img {
		sum += v
	}
	return sum
}
