package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
	"redplane/internal/topo"
)

// FlowspaceChainCounts is the chain-count sweep of the scale-out
// experiment: single chain (the classic deployment) doubling up to
// eight.
var FlowspaceChainCounts = []int{1, 2, 4, 8}

// flowspaceFlowsPerChain sets the workload width: enough distinct
// five-tuples per chain that the consistent-hash ring's key-mass
// deviation, not flow-count quantization, dominates the per-chain
// spread.
const flowspaceFlowsPerChain = 96

// FlowspaceScaleRow is one chain-count point of the weak-scaling sweep:
// offered load grows with the chain count, so a routing layer that
// spreads flows keeps per-chain goodput flat while aggregate goodput
// climbs.
type FlowspaceScaleRow struct {
	Chains int
	// OfferedMpps is the aggregate open-loop offered rate
	// (flowspaceOfferedPerChain per chain).
	OfferedMpps float64
	// GoodputMpps is the aggregate delivered rate at the sink over the
	// measurement window.
	GoodputMpps float64
	// PerChainMpps is GoodputMpps/Chains — the weak-scaling invariant
	// that must stay flat as chains are added.
	PerChainMpps float64
	// ChainSpread is max/min of the per-chain applied-write counts
	// (1.0 = perfectly even): the ring's load balance measured at the
	// store heads, not inferred from key mass.
	ChainSpread float64
}

// String renders the row.
func (r FlowspaceScaleRow) String() string {
	return fmt.Sprintf("chains=%d offered=%.2f Mpps goodput=%.3f Mpps per-chain=%.3f Mpps spread=%.2f",
		r.Chains, r.OfferedMpps, r.GoodputMpps, r.PerChainMpps, r.ChainSpread)
}

// FlowspaceScaleResult is the scale-out sweep plus its two acceptance
// scalars.
type FlowspaceScaleResult struct {
	Rows []FlowspaceScaleRow
	// ScaleUp is aggregate goodput at the widest point over the
	// single-chain aggregate — the scale-out win (ideal: the chain
	// ratio).
	ScaleUp float64
	// Flatness is the worst per-chain deviation from the single-chain
	// point, |PerChain(N)/PerChain(1) − 1| maximized over N. The
	// acceptance bar is ≤ 0.10: adding chains must not cost any chain
	// its goodput.
	Flatness float64
}

// flowspaceOfferedPerChain is the per-chain offered rate in Mpps. It
// sits above a chain's unbatched service capacity (1/StoreService =
// 0.5 M writes/s) but inside its egress-batched capacity, so a chain
// absorbing its fair share of flows delivers the offered rate — while
// a routing collapse that doubles a chain's share pushes that chain
// past saturation and shows up as lost aggregate goodput and a wide
// per-chain spread.
const flowspaceOfferedPerChain = 1.2

// FlowspaceScale measures scale-out of the flow-space sharded store: a
// Sync-Counter deployment (every packet's release gates on a
// replicated store write) whose chains the consistent-hash ring routes
// by five-tuple, under weak scaling — flowspaceOfferedPerChain Mpps
// and flowspaceFlowsPerChain flows per chain, swept over
// FlowspaceChainCounts. window is the per-point measurement window
// (0 = 6ms). Aggregate goodput should climb with the chain count and
// per-chain goodput stay flat: the store pipeline is the explicit
// bottleneck (1 µs of service per message), so scaling can only come
// from the ring actually spreading the flow space.
func FlowspaceScale(seed int64, window time.Duration) FlowspaceScaleResult {
	if window == 0 {
		window = 6 * time.Millisecond
	}
	var out FlowspaceScaleResult
	for _, chains := range FlowspaceChainCounts {
		out.Rows = append(out.Rows, flowspaceScaleRun(seed, chains, window))
	}
	base := out.Rows[0]
	last := out.Rows[len(out.Rows)-1]
	if base.GoodputMpps > 0 {
		out.ScaleUp = last.GoodputMpps / base.GoodputMpps
	}
	for _, r := range out.Rows[1:] {
		dev := r.PerChainMpps/base.PerChainMpps - 1
		if dev < 0 {
			dev = -dev
		}
		if dev > out.Flatness {
			out.Flatness = dev
		}
	}
	return out
}

// flowspaceScaleRun drives one chain-count point and returns its row.
func flowspaceScaleRun(seed int64, chains int, window time.Duration) FlowspaceScaleRow {
	proto := redplane.DefaultProtocolConfig()
	proto.FlushWindow = 10 * time.Microsecond // chaos-default egress batching
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:         seed,
		NewApp:       func(int) redplane.App { return apps.SyncCounter{} },
		Protocol:     proto,
		StoreService: throughputService,
		StoreShards:  chains,
		FlowSpace:    chains > 1,
	})

	sink := d.AddClient(0, "sink", extServerIP)
	delivered := 0
	counting := false
	sink.Handler = func(f *netsim.Frame) {
		if counting && f.Pkt != nil {
			delivered++
		}
	}

	// One sender per chain's worth of offered load, alternating racks so
	// both aggregation switches carry traffic.
	senders := make([]*topo.Host, chains)
	for i := range senders {
		senders[i] = d.AddServer(i%2, fmt.Sprintf("snd%d", i),
			packet4(10, byte(i%2), 1, byte(50+i)))
	}

	// Establish every flow's lease before measuring: flow f belongs to
	// sender f / flowspaceFlowsPerChain and port 1000+f — the ring, not
	// the sender, decides its chain.
	flows := flowspaceFlowsPerChain * chains
	for f := 0; f < flows; f++ {
		snd := senders[f/flowspaceFlowsPerChain]
		snd.SendPacket(newTinyPacket(snd.IP, extServerIP, uint16(1000+f)))
	}
	d.RunFor(25 * time.Millisecond)

	// Applied-write watermarks at the chain heads bracket the window so
	// the per-chain spread measures only steady-state load.
	applied0 := make([]uint64, chains)
	for ch := 0; ch < chains; ch++ {
		applied0[ch] = d.Cluster.Head(ch).Stats().Shard.ReplApplied
	}
	counting = true
	start := d.Now()
	end := start + redplane.Time(window.Nanoseconds())

	// flowspaceOfferedPerChain Mpps per sender, round-robined over the
	// sender's flows.
	perChain := float64(flowspaceOfferedPerChain)
	gapNs := int64(1e3 / perChain)
	for si, snd := range senders {
		si, snd := si, snd
		n := 0
		d.Sim.Every(start+netsim.Time(si*97+1), netsim.Duration(time.Duration(gapNs)), func() bool {
			n++
			f := si*flowspaceFlowsPerChain + n%flowspaceFlowsPerChain
			snd.SendPacket(newTinyPacket(snd.IP, extServerIP, uint16(1000+f)))
			return d.Sim.Now() < end
		})
	}
	d.RunFor(time.Duration(end) + 5*time.Millisecond)

	row := FlowspaceScaleRow{
		Chains:      chains,
		OfferedMpps: flowspaceOfferedPerChain * float64(chains),
		GoodputMpps: float64(delivered) / window.Seconds() / 1e6,
	}
	row.PerChainMpps = row.GoodputMpps / float64(chains)
	var min, max uint64
	for ch := 0; ch < chains; ch++ {
		n := d.Cluster.Head(ch).Stats().Shard.ReplApplied - applied0[ch]
		if ch == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min > 0 {
		row.ChainSpread = float64(max) / float64(min)
	}
	return row
}
