// NAT failover: the paper's headline end-to-end scenario (§7.3, Fig. 14).
//
// A bulk TCP transfer runs from an internal host to an external server
// through a RedPlane-enabled NAT. The switch holding the translation
// fails mid-transfer; the fabric reroutes, the alternate switch fetches
// the translation from the state store, and the connection recovers
// within about a second — instead of breaking permanently as it would
// without fault tolerance.
//
//	go run ./examples/nat-failover
package main

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/netsim"
	"redplane/internal/tcpsim"
)

func main() {
	natIP := redplane.MakeAddr(203, 0, 113, 1)
	nat := &apps.NAT{
		InternalPrefix: redplane.MakeAddr(10, 0, 0, 0),
		InternalMask:   redplane.MakeAddr(255, 0, 0, 0),
		PublicIP:       natIP,
	}
	alloc := apps.NewNATAllocator(nat)

	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed: 7,
		NewApp: func(i int) redplane.App {
			return &apps.NAT{InternalPrefix: nat.InternalPrefix,
				InternalMask: nat.InternalMask, PublicIP: natIP}
		},
		InitState: alloc.Init, // the port pool lives at the state store
		Fabric: netsim.LinkConfig{Delay: 800 * time.Nanosecond, Bandwidth: 1e9,
			QueueLimit: 2 * time.Millisecond},
	})
	d.RegisterServiceIP(natIP)

	sender := d.AddServer(0, "iperf-client", redplane.MakeAddr(10, 0, 0, 50))
	receiver := d.AddClient(0, "iperf-server", redplane.MakeAddr(100, 0, 0, 9))

	cfg := tcpsim.DefaultConfig()
	cfg.MaxCwnd = 16
	rcv := tcpsim.NewReceiver(receiver, 5001, cfg.MSS)
	perSecond := map[int]float64{}
	rcv.OnDeliver = func(b int) {
		perSecond[int(d.Now().Seconds())] += float64(b) * 8 / 1e9
	}
	snd := tcpsim.NewSender(d.Sim, sender, receiver.IP, 40000, 5001, cfg)
	snd.Start()

	// Fail the owning switch at t=5s; it recovers at t=15s.
	key := redplane.FiveTuple{Src: sender.IP, Dst: receiver.IP,
		SrcPort: 40000, DstPort: 5001, Proto: 6}
	owner := d.SwitchFor(key)
	const detect = 100 * time.Millisecond
	d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{
		{At: 5 * time.Second, Kind: failure.AggFail, Agg: owner.ID(), DetectDelay: detect},
		{At: 15 * time.Second, Kind: failure.AggRecover, Agg: owner.ID(), DetectDelay: detect},
	}})

	const dur = 20
	d.RunFor(dur * time.Second)

	fmt.Println("per-second TCP goodput through the RedPlane NAT (Gbps):")
	for s := 0; s < dur; s++ {
		marker := ""
		switch s {
		case 5:
			marker = "  <- switch fails (translation survives in the state store)"
		case 15:
			marker = "  <- switch recovers (lease hands back)"
		}
		fmt.Printf("  t=%2ds  %5.2f%s\n", s, perSecond[s], marker)
	}
	fmt.Printf("\ntotal transferred: %.2f GB; sender retransmits: %d\n",
		float64(rcv.BytesIn)/1e9, snd.Retransmits)
	fmt.Println("the connection survived both the failure and the recovery rehash")
}
