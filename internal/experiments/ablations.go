package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
)

// AblationResult quantifies one design choice by comparing the protocol
// with the mechanism enabled and disabled.
type AblationResult struct {
	Name    string
	With    float64
	Without float64
	Unit    string
	Comment string
}

// String renders the row.
func (a AblationResult) String() string {
	return fmt.Sprintf("%-24s with=%8.3f  without=%8.3f %s  (%s)",
		a.Name, a.With, a.Without, a.Unit, a.Comment)
}

// AblationSequencing measures the Fig. 6 design point: without request
// sequencing, reordered replication requests roll store state backwards.
// Reported: regressions (an applied counter value lower than the one it
// overwrote) per 1000 applied updates.
func AblationSequencing(seed int64) AblationResult {
	run := func(ignoreSeq bool) float64 {
		d := redplane.NewDeployment(redplane.DeploymentConfig{
			Seed:     seed,
			NewApp:   func(int) redplane.App { return apps.SyncCounter{} },
			Ablation: redplane.AblationConfig{StoreIgnoreSeq: ignoreSeq},
			// Heavy jitter on the fabric reorders protocol messages.
			Fabric: netsim.LinkConfig{Delay: 800 * time.Nanosecond,
				Bandwidth: 100e9, Jitter: 20 * time.Microsecond},
		})
		client := d.AddServer(0, "client", intClientIP)
		d.AddClient(0, "sink", extServerIP)
		const flows, perFlow = 40, 50
		for f := 0; f < flows; f++ {
			for i := 0; i < perFlow; i++ {
				f, i := f, i
				d.Sim.After(time.Duration(i)*3*time.Microsecond, func() {
					p := newTinyPacket(client.IP, extServerIP, uint16(2000+f))
					p.Seq = uint64(i + 1)
					client.SendPacket(p)
				})
			}
		}
		d.RunFor(2 * time.Second)
		st := d.Cluster.Head(0).Shard().Stats
		if st.ReplApplied == 0 {
			return 0
		}
		return 1000 * float64(st.Regressions) / float64(st.ReplApplied)
	}
	return AblationResult{
		Name: "request sequencing", Unit: "regressions per 1000 applied",
		With: run(false), Without: run(true),
		Comment: "reordering rolls unsequenced store state backwards (Fig. 6a)",
	}
}

// AblationRetransmission measures §5.2's retransmission mechanism: with
// protocol-request loss, how many acknowledged-at-switch updates reach
// the store durably. Reported: lost updates per 100 applied at the
// switch.
func AblationRetransmission(seed int64) AblationResult {
	run := func(disable bool) float64 {
		proto := redplane.DefaultProtocolConfig()
		proto.DisableRetransmit = disable
		proto.EmulatedRequestLoss = 0.05
		d := redplane.NewDeployment(redplane.DeploymentConfig{
			Seed:     seed,
			NewApp:   func(int) redplane.App { return apps.SyncCounter{} },
			Protocol: proto,
		})
		client := d.AddServer(0, "client", intClientIP)
		d.AddClient(0, "sink", extServerIP)
		const flows, perFlow = 20, 100
		for f := 0; f < flows; f++ {
			for i := 0; i < perFlow; i++ {
				f, i := f, i
				d.Sim.After(time.Duration(i)*20*time.Microsecond, func() {
					p := newTinyPacket(client.IP, extServerIP, uint16(2000+f))
					p.Seq = uint64(i + 1)
					client.SendPacket(p)
				})
			}
		}
		d.RunFor(2 * time.Second)
		var applied, durable uint64
		for f := 0; f < flows; f++ {
			key := redplane.FiveTuple{Src: client.IP, Dst: extServerIP,
				SrcPort: uint16(2000 + f), DstPort: 80, Proto: 6}
			if vals, ok := d.SwitchFor(key).FlowState(key); ok && len(vals) > 0 {
				applied += vals[0]
			}
			sh := d.Cluster.ShardFor(key)
			if vals, _, ok := d.Cluster.Head(sh).Shard().State(key); ok && len(vals) > 0 {
				durable += vals[0]
			}
		}
		if applied == 0 {
			return 0
		}
		return 100 * float64(applied-durable) / float64(applied)
	}
	return AblationResult{
		Name: "retransmission", Unit: "% updates lost at 5% req loss",
		With: run(false), Without: run(true),
		Comment: "without the mirror loop, dropped requests lose updates forever",
	}
}

// AblationChainLength measures durability's latency price: write-path
// RTT against store chains of one, two, and three replicas (the paper
// attributes 12 of Sync-Counter's 20 µs to its 3-way chain).
func AblationChainLength(seed int64) []AblationResult {
	lat := func(replicas int) float64 {
		sc := &latencyScenario{
			cfg: redplane.DeploymentConfig{Seed: seed,
				Replication: redplane.ReplicationConfig{Replicas: replicas},
				NewApp:      func(int) redplane.App { return apps.SyncCounter{} }},
			items: natTrace(seed, 2000, 10), gap: 20 * time.Microsecond, seed: seed,
		}
		return sc.run(300*time.Millisecond).Percentile(50) / 1e3
	}
	one, two, three := lat(1), lat(2), lat(3)
	return []AblationResult{
		{Name: "chain length 1->2", Unit: "µs p50 write RTT", With: two, Without: one,
			Comment: "each chain hop adds an inter-rack traversal"},
		{Name: "chain length 2->3", Unit: "µs p50 write RTT", With: three, Without: two,
			Comment: "the paper's prototype uses 3 replicas"},
	}
}

// AblationSnapshotPeriod quantifies bounded inconsistency: updates lost
// at failure as a function of the snapshot period ε.
func AblationSnapshotPeriod(seed int64) []AblationResult {
	loss := func(period time.Duration) float64 {
		proto := redplane.DefaultProtocolConfig()
		proto.SnapshotPeriod = period
		var det []*apps.HeavyHitter
		d := redplane.NewDeployment(redplane.DeploymentConfig{
			Seed: seed, Mode: redplane.BoundedInconsistency,
			SnapshotSlots: 192, Protocol: proto, StoreService: time.Microsecond,
			NewApp: func(i int) redplane.App {
				hh := apps.NewHeavyHitter(i, 1, 0, func(*redplane.Packet) int { return 0 })
				det = append(det, hh)
				return hh
			},
		})
		client := d.AddServer(0, "client", intClientIP)
		d.AddClient(0, "sink", extServerIP)
		const packets = 8000
		for i := 0; i < packets; i++ {
			i := i
			d.Sim.After(time.Duration(i)*5*time.Microsecond, func() {
				client.SendPacket(newTinyPacket(client.IP, extServerIP, uint16(2000+i%64)))
			})
		}
		// Stop MID-traffic: the gap between the live sketches and the
		// store's last complete image is what a failure at this instant
		// would lose — bounded by ε.
		d.RunFor(packets * 5 * time.Microsecond * 3 / 4)
		var liveTotal, imageTotal float64
		for i := 0; i < d.Switches(); i++ {
			hh := det[i]
			var live uint64
			for s := 0; s < 192; s++ {
				v, _ := snapshotPeek(hh, s)
				live += v
			}
			liveTotal += float64(live)
			partKey := apps.HHPartitionKey(i, 0)
			sh := d.Cluster.ShardFor(partKey)
			if img, _ := d.Cluster.Head(sh).Shard().LastSnapshot(partKey); img != nil {
				var tot uint64
				for _, v := range img {
					tot += v
				}
				imageTotal += float64(tot)
			}
		}
		if liveTotal == 0 {
			return 0
		}
		return 100 * (liveTotal - imageTotal) / liveTotal
	}
	return []AblationResult{
		{Name: "snapshot ε = 1ms", Unit: "% of updates at risk", With: loss(time.Millisecond),
			Without: 0, Comment: "lost on failure, bounded by ε"},
		{Name: "snapshot ε = 10ms", Unit: "% of updates at risk", With: loss(10 * time.Millisecond),
			Without: 0, Comment: "larger ε trades bandwidth for exposure"},
	}
}

// snapshotPeek reads a sketch slot's live value without disturbing
// snapshot bookkeeping.
func snapshotPeek(hh *apps.HeavyHitter, slot int) (uint64, bool) {
	return hh.Sketch(0).RowLatest(slot/64, slot%64), true
}

// Ablations runs every ablation at the given seed.
func Ablations(seed int64) []AblationResult {
	var out []AblationResult
	out = append(out, AblationSequencing(seed))
	out = append(out, AblationRetransmission(seed))
	out = append(out, AblationChainLength(seed)...)
	out = append(out, AblationSnapshotPeriod(seed)...)
	out = append(out, AblationMirrorBuffer(seed))
	return out
}

// AblationMirrorBuffer measures the bounded mirror buffer: with a tiny
// buffer, overload sheds update tracking (risking loss under request
// drop); with the default it absorbs in-flight bursts.
func AblationMirrorBuffer(seed int64) AblationResult {
	run := func(limit int) float64 {
		proto := redplane.DefaultProtocolConfig()
		proto.MirrorBufferLimit = limit
		proto.EmulatedRequestLoss = 0.02
		d := redplane.NewDeployment(redplane.DeploymentConfig{
			Seed:     seed,
			NewApp:   func(int) redplane.App { return apps.SyncCounter{} },
			Protocol: proto,
			Fabric:   fig12Fabric,
		})
		client := d.AddServer(0, "client", intClientIP)
		d.AddClient(0, "sink", extServerIP)
		n := 0
		d.Sim.Every(1, 1000, func() bool { // 1 Mpps burst
			n++
			client.SendPacket(newTinyPacket(client.IP, extServerIP, uint16(2000+n%32)))
			return n < 10000
		})
		d.RunFor(2 * time.Second)
		var overflow uint64
		for i := 0; i < d.Switches(); i++ {
			overflow += d.Switch(i).Stats().MirrorOverflow
		}
		return float64(overflow)
	}
	return AblationResult{
		Name: "mirror buffer 256KB vs 2KB", Unit: "untracked requests",
		With: run(256 * 1024), Without: run(2 * 1024),
		Comment: "a starved mirror buffer cannot cover losses under bursts",
	}
}
