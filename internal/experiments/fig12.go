package experiments

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/netsim"
	"redplane/internal/packet"
	"redplane/internal/topo"
)

// ThroughputRow compares one application's forwarding rate with and
// without RedPlane.
type ThroughputRow struct {
	App          string
	BaselineMpps float64
	RedPlaneMpps float64
}

// String renders the row.
func (r ThroughputRow) String() string {
	return fmt.Sprintf("%-16s baseline=%.3f Mpps  redplane=%.3f Mpps (%.0f%%)",
		r.App, r.BaselineMpps, r.RedPlaneMpps, 100*r.RedPlaneMpps/r.BaselineMpps)
}

// Fig12Result is the Fig. 12 reproduction: data-plane throughput impact.
type Fig12Result struct {
	Rows []ThroughputRow
	// FabricGbps is the scaled-down fabric rate used (the paper's
	// testbed bottlenecked at 122.5 Mpps on 100 Gbps links; the
	// simulation preserves the ratios at a tractable packet rate).
	FabricGbps float64
}

// fig12Fabric is the scaled fabric: 1 Gbps links mean 64-byte packets
// bottleneck near 1.95 Mpps, with the store service time calibrated so
// the write path saturates at roughly half that — the paper's observed
// Sync-Counter behaviour.
var fig12Fabric = netsim.LinkConfig{Delay: 800 * time.Nanosecond, Bandwidth: 1e9,
	QueueLimit: 2 * time.Millisecond}

// Fig12 measures delivered packet rate per application with and without
// fault tolerance under overload from three senders.
func Fig12(seed int64, window time.Duration) Fig12Result {
	if window == 0 {
		window = 20 * time.Millisecond
	}
	out := Fig12Result{FabricGbps: fig12Fabric.Bandwidth / 1e9}

	type variant struct {
		name   string
		mk     func(bool) redplane.DeploymentConfig
		useGTP bool
		toVIP  bool
	}
	nat := newNAT()
	natAlloc := apps.NewNATAllocator(nat)
	natAllocLocal := apps.NewNATAllocator(nat)
	pool := apps.NewLBPool(lbVIP, []redplane.Addr{extServerIP})
	poolLocal := apps.NewLBPool(lbVIP, []redplane.Addr{extServerIP})

	variants := []variant{
		{name: "NAT", mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{NewApp: func(int) redplane.App { return newNAT() }}
			if ft {
				cfg.InitState = natAlloc.Init
			} else {
				cfg.Baseline.NoStore = true
				cfg.Protocol = localProtocol(localInit(natAllocLocal))
			}
			return cfg
		}},
		{name: "Firewall", mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{NewApp: func(int) redplane.App {
				return &apps.Firewall{InternalPrefix: intPrefix, InternalMask: intMask}
			}}
			cfg.Baseline.NoStore = !ft
			return cfg
		}},
		{name: "Load balancer", toVIP: true, mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{NewApp: func(int) redplane.App {
				return &apps.LoadBalancer{VIP: lbVIP}
			}}
			if ft {
				cfg.InitState = pool.Init
			} else {
				cfg.Baseline.NoStore = true
				cfg.Protocol = localProtocol(localInitLB(poolLocal))
			}
			return cfg
		}},
		{name: "EPC-SGW", useGTP: true, mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{NewApp: func(int) redplane.App { return &apps.EPCSGW{} }}
			cfg.Baseline.NoStore = !ft
			return cfg
		}},
		{name: "HH-detector", mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{
				NewApp: func(i int) redplane.App {
					return apps.NewHeavyHitter(i, 1, 0, func(*redplane.Packet) int { return 0 })
				},
			}
			if ft {
				cfg.Mode = redplane.BoundedInconsistency
				cfg.SnapshotSlots = 192
			} else {
				cfg.Baseline.NoStore = true
			}
			return cfg
		}},
		{name: "Sync-Counter", mk: func(ft bool) redplane.DeploymentConfig {
			cfg := redplane.DeploymentConfig{NewApp: func(int) redplane.App { return apps.SyncCounter{} }}
			cfg.Baseline.NoStore = !ft
			return cfg
		}},
	}

	for _, v := range variants {
		base := fig12Run(seed, v.mk(false), window, v.useGTP, v.toVIP)
		ft := fig12Run(seed, v.mk(true), window, v.useGTP, v.toVIP)
		out.Rows = append(out.Rows, ThroughputRow{App: v.name, BaselineMpps: base, RedPlaneMpps: ft})
	}
	return out
}

// fig12Run blasts 64-byte packets from three rack senders toward an
// external sink through the given deployment and returns the delivered
// rate in Mpps.
func fig12Run(seed int64, cfg redplane.DeploymentConfig, window time.Duration, useGTP, toVIP bool) float64 {
	cfg.Seed = seed
	cfg.Fabric = fig12Fabric
	cfg.StoreService = 500 * time.Nanosecond
	d := redplane.NewDeployment(cfg)
	d.RegisterServiceIP(natPublicIP)
	d.RegisterServiceIP(lbVIP)

	sink := d.AddClient(0, "sink", extServerIP)
	delivered := 0
	counting := false
	sink.Handler = func(f *netsim.Frame) {
		if counting {
			delivered++
		}
	}

	senders := []*topo.Host{
		d.AddServer(0, "snd0", packet4(10, 0, 0, 51)),
		d.AddServer(1, "snd1", packet4(10, 1, 0, 51)),
		d.AddServer(0, "snd2", packet4(10, 0, 0, 52)),
	}

	// Warm up: establish every flow's state (control-plane inserts,
	// leases) before the measured window, as steady-state throughput
	// measurements do.
	for sport := 0; sport < 64; sport++ {
		for si, snd := range senders {
			_ = si
			if useGTP {
				snd.SendPacket(gtpSignal(snd.IP, extServerIP, uint32(10000*(si+1))+uint32(1000+sport)))
			} else if toVIP {
				p := newTinyPacket(snd.IP, lbVIP, uint16(1000+sport))
				p.TCP.DstPort = 443
				p.TCP.Flags |= packet.FlagSYN
				snd.SendPacket(p)
			} else {
				p := newTinyPacket(snd.IP, extServerIP, uint16(1000+sport))
				p.TCP.Flags |= packet.FlagSYN
				snd.SendPacket(p)
			}
		}
	}
	warmup := 25 * time.Millisecond
	d.RunFor(warmup)
	counting = true
	start := d.Now()
	end := start + redplane.Time(window.Nanoseconds())

	// Each sender offers ~0.67 Mpps: 2 Mpps total into a ~1.95 Mpps
	// fabric bottleneck — overloaded, but not so deep that the protocol
	// path spends itself on duplicates.
	const gapNs = 1500
	for si, snd := range senders {
		si, snd := si, snd
		n := 0
		d.Sim.Every(start+netsim.Time(si*100+1), gapNs, func() bool {
			n++
			sport := uint16(1000 + (n % 64))
			var p *redplane.Packet
			switch {
			case useGTP:
				// Disjoint TEID ranges per sender keep each user's
				// traffic on one path, the ECMP/partition-key affinity
				// §2 assumes. One packet in 18 is signaling (a state
				// write), the paper's mixed-read/write ratio.
				teid := uint32(10000*(si+1)) + uint32(sport)
				if n%18 == 17 {
					p = gtpSignal(snd.IP, extServerIP, teid)
				} else {
					p = gtpData(snd.IP, extServerIP, teid, n)
				}
			case toVIP:
				p = newTinyPacket(snd.IP, lbVIP, sport)
				p.TCP.DstPort = 443
			default:
				p = newTinyPacket(snd.IP, extServerIP, sport)
			}
			snd.SendPacket(p)
			return d.Sim.Now() < end
		})
	}
	d.RunFor(time.Duration(end) + 5*time.Millisecond)
	return float64(delivered) / window.Seconds() / 1e6
}
