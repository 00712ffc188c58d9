// Quickstart: make an in-switch application fault tolerant with RedPlane.
//
// This example runs the paper's worst-case app — a per-flow packet
// counter that updates state on every packet — on the simulated testbed:
// two programmable switches, a chain-replicated state store, ECMP
// routing. It sends traffic, crashes the switch holding the flow's state,
// and shows the flow's counter surviving on the alternate switch.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/netsim"
	"redplane/internal/packet"
)

func main() {
	// One call builds the whole deployment: switches, store, fabric.
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed:          42,
		NewApp:        func(i int) redplane.App { return apps.SyncCounter{} },
		Mode:          redplane.Linearizable,
		RecordHistory: true, // enable offline linearizability checking
	})

	client := d.AddClient(0, "client", redplane.MakeAddr(100, 0, 0, 1))
	server := d.AddServer(0, "server", redplane.MakeAddr(10, 0, 0, 50))

	var lastCount uint64
	delivered := 0
	server.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil {
			delivered++
			lastCount = f.Pkt.Observed // the counter value this packet saw
		}
	}

	send := func(n int, from uint64) {
		for i := 0; i < n; i++ {
			p := packet.NewTCP(client.IP, server.IP, 5555, 80, packet.FlagACK, 0)
			p.Seq = from + uint64(i)
			client.SendPacket(p)
		}
	}

	// Phase 1: 50 packets through whichever switch ECMP picks.
	send(50, 1)
	d.RunFor(100 * time.Millisecond)
	key := redplane.FiveTuple{Src: client.IP, Dst: server.IP,
		SrcPort: 5555, DstPort: 80, Proto: 6}
	owner := d.SwitchFor(key)
	fmt.Printf("phase 1: %d packets delivered, counter=%d, flow owned by %s\n",
		delivered, lastCount, owner.Name())

	// Fail that switch. Its memory — including our counter — is gone.
	d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{{
		At: 110 * time.Millisecond, Kind: failure.AggFail, Agg: owner.ID(),
		DetectDelay: 50 * time.Millisecond,
	}}})
	d.RunFor(300 * time.Millisecond)
	fmt.Printf("switch %s crashed (all on-switch state lost); fabric rerouted\n", owner.Name())

	// Phase 2: more traffic. The sibling switch acquires the lease from
	// the state store and resumes from the replicated counter value.
	send(50, 51)
	d.RunFor(5 * time.Second)

	fmt.Printf("phase 2: %d packets delivered in total, counter=%d\n", delivered, lastCount)
	if lastCount != 100 {
		log.Fatalf("state was lost: final counter %d, want 100", lastCount)
	}
	if err := d.CheckLinearizable(); err != nil {
		log.Fatalf("history not linearizable: %v", err)
	}
	fmt.Println("counter survived the switch failure; history is per-flow linearizable")
}
