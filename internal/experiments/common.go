// Package experiments reproduces every table and figure of the paper's
// evaluation (§7) on the simulated testbed. Each Fig*/Table* function is
// a self-contained driver returning structured results; cmd/redplane-bench
// prints them in the paper's format and the root bench_test.go wraps them
// as Go benchmarks. The Scale parameter shrinks workloads for CI; the
// shipped defaults match the paper's methodology (packet counts, rates
// and sweep points) at simulation-tractable magnitudes, documented per
// experiment in EXPERIMENTS.md.
package experiments

import (
	"math/rand"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/metrics"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/topo"
	"redplane/internal/trace"
)

// Address plan shared by the experiments.
var (
	intClientIP = packet.MakeAddr(10, 0, 0, 50) // internal client (rack 0)
	extServerIP = packet.MakeAddr(100, 0, 0, 9) // server outside the DC
	natPublicIP = packet.MakeAddr(203, 0, 113, 1)
	lbVIP       = packet.MakeAddr(203, 0, 113, 10)
	intPrefix   = packet.MakeAddr(10, 0, 0, 0)
	intMask     = packet.MakeAddr(255, 0, 0, 0)
)

// echoServer makes a host bounce application traffic back to its sender,
// preserving the RedPlane-relevant headers so the reverse direction
// exercises the switch too. Replies come from the packet reuse pool:
// the echo loop is the experiments' hottest clone site, and every reply
// terminates at the client's rttRecorder, which releases it.
func echoServer(h *topo.Host) {
	h.Handler = func(f *netsim.Frame) {
		p := f.Pkt
		if p == nil {
			return
		}
		r := p.ClonePooled()
		r.IP.Src, r.IP.Dst = p.IP.Dst, p.IP.Src
		switch {
		case r.HasTCP:
			r.TCP.SrcPort, r.TCP.DstPort = p.TCP.DstPort, p.TCP.SrcPort
			r.TCP.Flags = packet.FlagACK
			if p.TCP.Flags.Has(packet.FlagSYN) {
				r.TCP.Flags |= packet.FlagSYN
			}
		case r.HasUDP:
			r.UDP.SrcPort, r.UDP.DstPort = p.UDP.DstPort, p.UDP.SrcPort
		}
		// Replies from the internet side travel unencapsulated: a real
		// PDN does not speak GTP, and keying the reverse path on the
		// tunnel ID would fight the fabric's 5-tuple ECMP affinity.
		r.HasGTP = false
		h.Send(netsim.DataFrame(r))
	}
}

// rttRecorder records round-trip latency of echoed packets at the
// client. The client is the terminal consumer of every echoed reply, so
// after recording it returns the packet to the reuse pool (replies
// originate in echoServer as pooled clones; nothing downstream retains
// them).
func rttRecorder(sim *netsim.Sim, h *topo.Host, lat *metrics.Latency) {
	h.Handler = func(f *netsim.Frame) {
		if f.Pkt == nil {
			return
		}
		if f.Pkt.SentAt > 0 {
			lat.Add(float64(int64(sim.Now()) - f.Pkt.SentAt))
		}
		f.Pkt.Release()
		f.Pkt = nil
	}
}

// replay injects trace items from the client with the given inter-packet
// gap, stamping send times. If firstSYN is set, each flow's first packet
// carries SYN (stateful firewall establishment).
func replay(sim *netsim.Sim, h *topo.Host, items []trace.Item, gap time.Duration, firstSYN bool) {
	for i, it := range items {
		it := it
		sim.At(sim.Now()+netsim.Time(i)*netsim.Duration(gap)+1, func() {
			p := it.Pkt
			if firstSYN && p.HasTCP && p.Seq == 1 {
				p.TCP.Flags |= packet.FlagSYN
			}
			p.SentAt = int64(sim.Now())
			h.SendPacket(p)
		})
	}
}

// replayStaggered injects the trace with each flow starting at a random
// offset within span and its packets spaced by perFlowGap — the arrival
// pattern of a real trace, where new flows appear throughout rather than
// all at once (keeping control-plane flow setups from queueing behind
// each other, as on the paper's testbed).
func replayStaggered(sim *netsim.Sim, h *topo.Host, items []trace.Item,
	span, perFlowGap time.Duration, firstSYN bool, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	starts := map[int]netsim.Time{}
	counts := map[int]int{}
	for _, it := range items {
		it := it
		st, ok := starts[it.FlowIdx]
		if !ok {
			st = netsim.Time(rng.Int63n(int64(netsim.Duration(span))))
			starts[it.FlowIdx] = st
		}
		at := st + netsim.Time(counts[it.FlowIdx])*netsim.Duration(perFlowGap) + 1
		counts[it.FlowIdx]++
		sim.At(at, func() {
			p := it.Pkt
			if firstSYN && p.HasTCP && p.Seq == 1 {
				p.TCP.Flags |= packet.FlagSYN
			}
			p.SentAt = int64(sim.Now())
			h.SendPacket(p)
		})
	}
}

// latencyScenario wires one app deployment with an internal client and an
// external echo server, replays a trace, and returns the RTT
// distribution. The configure hook adapts the deployment (service IPs,
// store init).
type latencyScenario struct {
	cfg      redplane.DeploymentConfig
	items    []trace.Item
	gap      time.Duration
	span     time.Duration // staggered flow starts over this window (0 = sequential replay)
	firstSYN bool
	// clientOutside places the traffic source outside the DC (LB, KV);
	// otherwise the client is internal (NAT/FW direction).
	clientOutside bool
	serviceIPs    []packet.Addr
	seed          int64
}

// run executes the scenario for the given virtual duration and returns
// the latency distribution.
func (sc *latencyScenario) run(dur time.Duration) *metrics.Latency {
	d := redplane.NewDeployment(sc.cfg)
	for _, ip := range sc.serviceIPs {
		d.RegisterServiceIP(ip)
	}
	var client, server *topo.Host
	if sc.clientOutside {
		client = d.AddClient(0, "client", extServerIP)
		server = d.AddServer(0, "server", intClientIP)
	} else {
		client = d.AddServer(0, "client", intClientIP)
		server = d.AddClient(0, "server", extServerIP)
	}
	echoServer(server)
	lat := &metrics.Latency{}
	rttRecorder(d.Sim, client, lat)
	if sc.span > 0 {
		replayStaggered(d.Sim, client, sc.items, sc.span, sc.gap, sc.firstSYN, sc.seed)
	} else {
		replay(d.Sim, client, sc.items, sc.gap, sc.firstSYN)
	}
	d.RunFor(dur)
	return lat
}

// natTrace builds the replayed NAT/FW workload: internal client flows to
// an external server with trace-like packet sizes.
func natTrace(seed int64, packets, flows int) []trace.Item {
	rng := rand.New(rand.NewSource(seed))
	return trace.Flows(rng, trace.FlowConfig{
		Flows: flows, Packets: packets, ZipfS: 0.9,
		Src: intClientIP, Dst: extServerIP, DstPort: 80, BasePort: 2000,
	})
}

// newNAT builds a NAT app instance with the shared address plan.
func newNAT() *apps.NAT {
	return &apps.NAT{InternalPrefix: intPrefix, InternalMask: intMask, PublicIP: natPublicIP}
}

// randSource is a convenience wrapper for a fresh seeded RNG.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// packet4 aliases packet.MakeAddr to keep experiment files terse.
func packet4(a, b, c, d byte) packet.Addr { return packet.MakeAddr(a, b, c, d) }

// newTinyPacket builds a minimum-size TCP packet for rate experiments.
func newTinyPacket(src, dst packet.Addr, sport uint16) *packet.Packet {
	return packet.NewTCP(src, dst, sport, 80, packet.FlagACK, 0)
}

// gtpData builds a minimum-size EPC user-plane packet for user teid.
func gtpData(src, dst packet.Addr, teid uint32, seq int) *packet.Packet {
	p := packet.NewUDP(src, dst, 40000, packet.GTPPort, 0)
	p.HasGTP = true
	p.GTP = packet.GTP{Version: 1, MsgType: packet.GTPMsgData, TEID: teid}
	p.Seq = uint64(seq)
	return p
}

// localInit adapts a shared allocator to the per-switch LocalInit hook
// (for baselines where switches may share one logical pool).
func localInit(a *apps.NATAllocator) func(int, packet.FiveTuple) []uint64 {
	return func(_ int, key packet.FiveTuple) []uint64 { return a.Init(key) }
}

// localProtocol is the default protocol with a switch-local flow
// initializer: the configuration of a NoStore baseline that seeds state.
func localProtocol(init func(int, packet.FiveTuple) []uint64) redplane.ProtocolConfig {
	p := redplane.DefaultProtocolConfig()
	p.LocalInit = init
	return p
}

// localInitLB adapts a load-balancer pool to the LocalInit hook.
func localInitLB(p *apps.LBPool) func(int, packet.FiveTuple) []uint64 {
	return func(_ int, key packet.FiveTuple) []uint64 { return p.Init(key) }
}

// gtpSignal builds a session-establishment signaling message.
func gtpSignal(src, dst packet.Addr, teid uint32) *packet.Packet {
	p := packet.NewUDP(src, dst, 40000, packet.GTPPort, 0)
	p.HasGTP = true
	p.GTP = packet.GTP{Version: 1, MsgType: packet.GTPMsgSignaling, TEID: teid, Len: uint16(teid)}
	return p
}
