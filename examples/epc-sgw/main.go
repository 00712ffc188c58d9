// EPC serving gateway: the paper's mixed-read/write application (§2, §6).
//
// A cellular serving gateway routes user data by per-user tunnel
// endpoint ID (TEID) state: signaling messages (device attach, handover)
// write it; every data packet reads it. RedPlane replicates the signaling
// updates synchronously, so when the switch fails, users' sessions
// migrate to the alternate switch instead of being torn down ("affected
// users need to re-establish connections" without it, §2.1).
//
//	go run ./examples/epc-sgw
package main

import (
	"fmt"
	"time"

	"redplane"
	"redplane/internal/apps"
	"redplane/internal/failure"
	"redplane/internal/netsim"
	"redplane/internal/packet"
)

func main() {
	var sgws []*apps.EPCSGW
	d := redplane.NewDeployment(redplane.DeploymentConfig{
		Seed: 11,
		NewApp: func(i int) redplane.App {
			s := &apps.EPCSGW{}
			sgws = append(sgws, s)
			return s
		},
	})

	ran := d.AddServer(0, "ran", redplane.MakeAddr(10, 0, 0, 50)) // radio side
	pdn := d.AddClient(0, "pdn", redplane.MakeAddr(100, 0, 0, 9)) // internet side

	forwarded := map[uint32]int{} // downstream TEID -> packets
	pdn.Handler = func(f *netsim.Frame) {
		if f.Pkt != nil && f.Pkt.HasGTP {
			forwarded[f.Pkt.GTP.TEID]++
		}
	}

	gtp := func(teid uint32, msgType uint8, val uint16) {
		p := packet.NewUDP(ran.IP, pdn.IP, 40000, packet.GTPPort, 64)
		p.HasGTP = true
		p.GTP = packet.GTP{Version: 1, MsgType: msgType, TEID: teid, Len: val}
		ran.SendPacket(p)
	}

	// Attach 3 users: signaling installs their forwarding state (the
	// write path, replicated synchronously before the ack releases).
	for u := uint32(1); u <= 3; u++ {
		gtp(u, packet.GTPMsgSignaling, uint16(100*u))
	}
	d.RunFor(10 * time.Millisecond)

	// User data flows (the read path — no per-packet replication).
	for i := 0; i < 30; i++ {
		gtp(uint32(1+i%3), packet.GTPMsgData, 0)
	}
	d.RunFor(50 * time.Millisecond)
	fmt.Printf("pre-failure: forwarded per downstream TEID: %v\n", forwarded)

	// Fail the switch owning user 1's session.
	key, _ := (&apps.EPCSGW{}).Key(&packet.Packet{HasGTP: true,
		GTP: packet.GTP{TEID: 1, MsgType: packet.GTPMsgData}})
	owner := d.SwitchFor(key)
	d.ScheduleFaultEvents(redplane.FaultSchedule{Events: []redplane.FaultEvent{{
		At: 70 * time.Millisecond, Kind: failure.AggFail, Agg: owner.ID(),
		DetectDelay: 30 * time.Millisecond,
	}}})
	d.RunFor(200 * time.Millisecond)
	fmt.Printf("%s failed; sessions' TEID state lives in the store\n", owner.Name())

	// A handover for user 1 (a write) plus more data — both served by
	// the surviving switch with the migrated session state.
	gtp(1, packet.GTPMsgSignaling, 999)
	d.RunFor(50 * time.Millisecond)
	for i := 0; i < 10; i++ {
		gtp(1, packet.GTPMsgData, 0)
	}
	d.RunFor(3 * time.Second)

	fmt.Printf("post-failure: forwarded per downstream TEID: %v\n", forwarded)
	switch {
	case forwarded[999] > 0:
		fmt.Println("user 1's session survived the failure AND its handover applied")
	case forwarded[100] > 10:
		fmt.Println("user 1's session survived the failure (handover still in flight)")
	default:
		fmt.Println("UNEXPECTED: session broke across the failure")
	}
	for i, s := range sgws {
		fmt.Printf("sgw on switch %d: %d signals processed, %d sessionless drops\n",
			i, s.Signals, s.Drops)
	}
}
