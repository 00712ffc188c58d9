// Command redplane-switch exercises a running redplane-store over real
// UDP as a RedPlane switch would: it acquires leases, replicates
// sequenced state updates, renews, and reports per-request latency. Use
// it to validate a store deployment end-to-end.
//
//	redplane-switch -store 127.0.0.1:9500 -id 1 -flows 100 -writes 50 [-trace file] [-stats]
//
// Before any traffic it performs the hello handshake against each
// target, refusing to run against a mid-chain replica or (with
// -expect-shards) a server whose shard count differs from the
// assumption — both previously silent misroutes. With -ctl it fetches
// the chain-head routing table from a redplane-ctl daemon instead of
// using a static -store address, and spreads flows across chains with
// the same flow-space ring the daemon uses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"redplane/internal/ctl"
	"redplane/internal/obs"
	"redplane/internal/packet"
	"redplane/internal/store"
	"redplane/internal/wire"
)

func main() {
	addr := flag.String("store", "127.0.0.1:9500", "store chain head address")
	ctlAddr := flag.String("ctl", "", "redplane-ctl address to fetch routing from (overrides -store)")
	expectShards := flag.Int("expect-shards", 0,
		"fail unless the store serves exactly this many shards (0 = accept any)")
	id := flag.Int("id", 1, "switch ID")
	flows := flag.Int("flows", 10, "number of flows to drive")
	writes := flag.Int("writes", 20, "state updates per flow")
	batch := flag.Int("batch", 1, "writes packed per batch datagram (1 = one request per datagram)")
	traceFile := flag.String("trace", "", "write the request/ack event timeline (JSONL) to this file")
	stats := flag.Bool("stats", false, "print the request counter summary")
	authToken := flag.String("auth-token", "", "shared secret for the redplane-ctl control plane")
	flag.Parse()

	var router *ctl.Router
	if *ctlAddr != "" {
		r, err := ctl.FetchRouting(*ctlAddr, *authToken, 0)
		if err != nil {
			log.Fatalf("redplane-switch: %v", err)
		}
		router = r
		log.Printf("redplane-switch: routing epoch %d, heads %v", r.Epoch, r.Heads)
	}
	// One client per distinct head, hello-verified on first use: a
	// mid-chain target or shard-count mismatch fails here, before any
	// state-mutating traffic escapes.
	clients := map[string]*store.UDPClient{}
	clientFor := func(key packet.FiveTuple) *store.UDPClient {
		a := *addr
		if router != nil {
			a = router.HeadFor(key)
		}
		if a == "" {
			log.Fatalf("redplane-switch: no live head for flow %v", key)
		}
		if c, ok := clients[a]; ok {
			return c
		}
		if _, err := store.VerifyDeployTarget(a, *expectShards, 0); err != nil {
			log.Fatalf("redplane-switch: %v", err)
		}
		c, err := store.DialUDP(a, *id)
		if err != nil {
			log.Fatalf("redplane-switch: %v", err)
		}
		clients[a] = c
		return c
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// The same observability layer the simulator uses, against the real
	// store: events are stamped with wall-clock nanoseconds since start.
	reg := obs.NewRegistry()
	var tr *obs.Tracer
	if *traceFile != "" {
		tr = obs.NewTracer(1 << 20)
	}
	met := reg.NS("switch/udp")
	leases := met.Counter("lease_acquired")
	repls := met.Counter("repl_sends")
	renews := met.Counter("lease_renewals")
	comp := fmt.Sprintf("udp-switch-%d", *id)

	start := time.Now()
	var lats []time.Duration
	do := func(c *store.UDPClient, m *wire.Message) *wire.Message {
		reqStart := time.Now()
		ack, err := c.Request(m)
		if err != nil {
			log.Fatalf("redplane-switch: %v request: %v", m.Type, err)
		}
		lats = append(lats, time.Since(reqStart))
		if tr.Active() {
			var et obs.EventType
			switch m.Type {
			case wire.MsgLeaseNew:
				et = obs.EvLeaseGrant
			case wire.MsgRepl:
				et = obs.EvReplSend
			default:
				et = obs.EvLeaseRenew
			}
			tr.Emit(obs.Event{T: int64(reqStart.Sub(start)), Type: et,
				Comp: comp, Flow: m.Key.String(), Seq: m.Seq})
			tr.Emit(obs.Event{T: int64(time.Since(start)), Type: obs.EvReplAck,
				Comp: comp, Flow: m.Key.String(), Seq: ack.Seq})
		}
		switch m.Type {
		case wire.MsgLeaseNew:
			leases.Inc()
		case wire.MsgRepl:
			repls.Inc()
		case wire.MsgLeaseRenew:
			renews.Inc()
		}
		return ack
	}

	for f := 0; f < *flows; f++ {
		key := packet.FiveTuple{
			Src: packet.MakeAddr(10, 0, 0, 1), Dst: packet.MakeAddr(100, 0, 0, 1),
			SrcPort: uint16(1000 + f), DstPort: 80, Proto: packet.ProtoTCP,
		}
		c := clientFor(key)
		ack := do(c, &wire.Message{Type: wire.MsgLeaseNew, Key: key})
		if ack.Type == wire.MsgLeaseReject {
			log.Fatalf("redplane-switch: flow %d lease rejected (another switch owns it)", f)
		}
		seq := ack.Seq
		for w := 1; w <= *writes; w += *batch {
			n := *batch
			if w+n-1 > *writes {
				n = *writes - w + 1
			}
			msgs := make([]*wire.Message, n)
			for i := range msgs {
				seq++
				msgs[i] = &wire.Message{Type: wire.MsgRepl, Key: key, Seq: seq,
					Vals: []uint64{uint64(w + i)}}
			}
			if n == 1 {
				wack := do(c, msgs[0])
				if wack.Type != wire.MsgReplAck || wack.Seq < msgs[0].Seq {
					log.Fatalf("redplane-switch: flow %d write %d: unexpected ack %v seq=%d",
						f, w, wack.Type, wack.Seq)
				}
				continue
			}
			reqStart := time.Now()
			acks, err := c.RequestBatch(msgs)
			if err != nil {
				log.Fatalf("redplane-switch: flow %d batch at write %d: %v", f, w, err)
			}
			lats = append(lats, time.Since(reqStart))
			repls.Add(uint64(n))
			for i, wack := range acks {
				if wack.Type != wire.MsgReplAck || wack.Seq < msgs[i].Seq {
					log.Fatalf("redplane-switch: flow %d write %d: unexpected ack %v seq=%d",
						f, w+i, wack.Type, wack.Seq)
				}
			}
			if tr.Active() {
				tr.Emit(obs.Event{T: int64(reqStart.Sub(start)), Type: obs.EvBatchFlush,
					Comp: comp, Flow: key.String(), Seq: seq, V: int64(n)})
			}
		}
		do(c, &wire.Message{Type: wire.MsgLeaseRenew, Key: key})
	}
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		return lats[int(p*float64(len(lats)-1))]
	}
	// One entry per timed round trip: a batch of -batch writes is one.
	fmt.Printf("redplane-switch: %d requests in %v (%.0f req/s)\n",
		len(lats), elapsed.Round(time.Millisecond), float64(len(lats))/elapsed.Seconds())
	fmt.Printf("latency: p50=%v p90=%v p99=%v\n", pct(0.50), pct(0.90), pct(0.99))
	fmt.Println("all leases acquired, all writes acknowledged in order")

	if *stats {
		fmt.Fprintf(os.Stderr, "[stats] lease_acquired=%d repl_sends=%d lease_renewals=%d\n",
			leases.Value(), repls.Value(), renews.Value())
	}
	if *traceFile != "" {
		out, err := os.Create(*traceFile)
		if err != nil {
			log.Fatalf("redplane-switch: trace: %v", err)
		}
		if err := tr.WriteJSONL(out, fmt.Sprintf("udp-switch-%d", *id)); err != nil {
			log.Fatalf("redplane-switch: trace: %v", err)
		}
		if err := out.Close(); err != nil {
			log.Fatalf("redplane-switch: trace: %v", err)
		}
	}
}
