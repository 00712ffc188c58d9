package experiments

import (
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/trace"
)

// Fig9Result is the Fig. 9 reproduction: end-to-end RTT for every
// RedPlane-enabled application, chain replication on (plus Sync-Counter
// without it).
type Fig9Result struct {
	Rows    []LatencyRow
	Packets int
}

// Fig9 measures the per-application latency distributions.
func Fig9(seed int64, packets int) Fig9Result {
	return fig9Subset(seed, packets, -1)
}

// fig9Subset runs all scenarios (idx < 0) or only the idx-th one.
func fig9Subset(seed int64, packets, idx int) Fig9Result {
	flows := packets / 100
	if flows < 10 {
		flows = 10
	}
	gap := 20 * time.Microsecond
	span := time.Duration(packets) * gap / 2
	dur := time.Duration(packets)*gap + 500*time.Millisecond

	res := Fig9Result{Packets: packets}
	n := 0
	add := func(name string, sc *latencyScenario) {
		sel := n
		n++
		if idx >= 0 && sel != idx {
			return
		}
		sc.seed = seed
		sc.span = span
		res.Rows = append(res.Rows, LatencyRow{System: name, Lat: sc.run(dur)})
	}

	// NAT (read-centric; port pool at the store).
	{
		nat := newNAT()
		alloc := apps.NewNATAllocator(nat)
		add("NAT", &latencyScenario{
			cfg: redplane.DeploymentConfig{Seed: seed, InitState: alloc.Init,
				NewApp: func(int) redplane.App { return newNAT() }},
			items: natTrace(seed, packets, flows), gap: gap,
			serviceIPs: []redplane.Addr{natPublicIP},
		})
	}

	// Stateful firewall (read-centric; one write at connection setup).
	add("Firewall", &latencyScenario{
		cfg: redplane.DeploymentConfig{Seed: seed,
			NewApp: func(int) redplane.App {
				return &apps.Firewall{InternalPrefix: intPrefix, InternalMask: intMask}
			}},
		items: natTrace(seed, packets, flows), gap: gap, firstSYN: true,
	})

	// Load balancer (read-centric; backend pool at the store; DSR).
	{
		pool := apps.NewLBPool(lbVIP, []redplane.Addr{intClientIP})
		add("Load balancer", &latencyScenario{
			cfg: redplane.DeploymentConfig{Seed: seed, InitState: pool.Init,
				NewApp: func(int) redplane.App { return &apps.LoadBalancer{VIP: lbVIP} }},
			items: lbTrace(seed, packets, flows), gap: gap, clientOutside: true,
			serviceIPs: []redplane.Addr{lbVIP},
		})
	}

	// EPC-SGW (mixed read/write: 1 signaling per 17 data packets).
	add("EPC-SGW", &latencyScenario{
		cfg: redplane.DeploymentConfig{Seed: seed,
			NewApp: func(int) redplane.App { return &apps.EPCSGW{} }},
		items: trace.EPC(randSource(seed), trace.EPCConfig{
			Users: flows, Packets: packets, SignalingEvery: 17,
			Src: intClientIP, Dst: extServerIP,
		}),
		gap: gap,
	})

	// Heavy-hitter detection (write-centric; 1 ms snapshot replication of
	// the paper's 3x64-slot sketch).
	{
		add("HH-detection", &latencyScenario{
			cfg: redplane.DeploymentConfig{Seed: seed,
				Mode:          redplane.BoundedInconsistency,
				SnapshotSlots: 192,
				StoreService:  time.Microsecond,
				NewApp: func(i int) redplane.App {
					return apps.NewHeavyHitter(i, 1, 0, func(*redplane.Packet) int { return 0 })
				}},
			items: natTrace(seed, packets, flows), gap: gap,
		})
	}

	// Async-Counter (write-centric, snapshot replication).
	add("Async-Counter", &latencyScenario{
		cfg: redplane.DeploymentConfig{Seed: seed,
			Mode:          redplane.BoundedInconsistency,
			SnapshotSlots: apps.NewAsyncCounter(0).Slots(),
			StoreService:  time.Microsecond,
			NewApp:        func(i int) redplane.App { return apps.NewAsyncCounter(i) }},
		items: natTrace(seed, packets, flows), gap: gap,
	})

	// Sync-Counter without chain replication (one store server).
	add("Sync-Counter (w/o chain)", &latencyScenario{
		cfg: redplane.DeploymentConfig{Seed: seed,
			Replication: redplane.ReplicationConfig{Replicas: 1},
			NewApp:      func(int) redplane.App { return apps.SyncCounter{} }},
		items: natTrace(seed, packets, flows), gap: gap,
	})

	// Sync-Counter with 3-way chain replication (the worst case).
	add("Sync-Counter (w/ chain)", &latencyScenario{
		cfg: redplane.DeploymentConfig{Seed: seed,
			NewApp: func(int) redplane.App { return apps.SyncCounter{} }},
		items: natTrace(seed, packets, flows), gap: gap,
	})
	return res
}

// lbTrace generates external client connections to the load balancer VIP.
func lbTrace(seed int64, packets, flows int) []trace.Item {
	return trace.Flows(randSource(seed), trace.FlowConfig{
		Flows: flows, Packets: packets, ZipfS: 0.9,
		Src: extServerIP, Dst: lbVIP, DstPort: 443, BasePort: 3000,
	})
}
