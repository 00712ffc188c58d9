// Command redplane-udpload drives a real-UDP store server with a
// windowed replication sweep and reports acknowledged goodput: every
// counted write was leased, sequenced, and cumulatively acknowledged by
// the chain tail. The generator uses the same batched recvmmsg/sendmmsg
// layer as the server (one datagram per syscall off Linux), so it can
// saturate a sharded server from one host.
//
//	redplane-udpload -addr 127.0.0.1:9500 -flows 64 -writes 2000 -batch 16
//
// -zipf S skews the per-flow write allocation (flow rank r weighs
// 1/r^S; the Flows*Writes total is preserved), modeling heavy-hitter
// flow popularity; with -shards N the report adds the per-shard write
// counts and their max/mean goodput spread, showing how lopsided the
// skew leaves a statically-hashed server.
//
// With -verify it instead re-leases each flow with its original switch
// ID and checks the store still reports the sweep's final watermark —
// the post-restart assertion of the CI kill -9 smoke. -verify knows the
// -zipf allocation (it is deterministic), so skewed sweeps verify too.
//
// Before traffic the generator performs the hello handshake against
// the target: it refuses a mid-chain replica and a -shards value the
// server contradicts, and with -shards 0 adopts the server's actual
// count for the spread report. With -ctl the chain-head address is
// resolved from a redplane-ctl daemon's routing table instead of -addr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"redplane/internal/ctl"
	"redplane/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9500", "store chain head address")
	flows := flag.Int("flows", 32, "distinct five-tuple flows")
	writes := flag.Int("writes", 100, "replication writes per flow")
	batch := flag.Int("batch", 16, "messages per request datagram")
	window := flag.Int("window", 0, "per-flow unacked bound (0 = 4*max(batch, 32), 128 at the defaults)")
	stall := flag.Duration("stall", 100*time.Millisecond, "retransmission timer")
	timeout := flag.Duration("timeout", 60*time.Second, "overall sweep deadline")
	zipf := flag.Float64("zipf", 0, "Zipf skew exponent for the per-flow write allocation (0 = uniform)")
	shards := flag.Int("shards", 0, "server shard count, for the per-shard goodput spread report (0 = omit)")
	verify := flag.Bool("verify", false, "verify a prior sweep's watermarks instead of sweeping")
	jsonOut := flag.String("json", "", "write the sweep result as JSON to this file (- = stdout)")
	ctlAddr := flag.String("ctl", "", "redplane-ctl address to resolve the chain head from (overrides -addr)")
	authToken := flag.String("auth-token", "", "shared secret for the redplane-ctl control plane")
	flag.Parse()

	if *ctlAddr != "" {
		r, err := ctl.FetchRouting(*ctlAddr, *authToken, 0)
		if err != nil {
			log.Fatalf("redplane-udpload: %v", err)
		}
		if len(r.Heads) != 1 {
			log.Fatalf("redplane-udpload: %d chains in routing epoch %d; the sweep drives one chain — pass -addr with the head to target", len(r.Heads), r.Epoch)
		}
		if r.Heads[0] == "" {
			log.Fatalf("redplane-udpload: routing epoch %d has no live head", r.Epoch)
		}
		*addr = r.Heads[0]
		log.Printf("redplane-udpload: routing epoch %d, head %s", r.Epoch, *addr)
	}
	// Fail fast on a misconfigured target: a mid-chain replica would
	// silently drop (or worse, misorder) direct writes, and a shard
	// mismatch skews the flow spread the report assumes.
	hi, err := store.VerifyDeployTarget(*addr, *shards, 0)
	if err != nil {
		log.Fatalf("redplane-udpload: %v", err)
	}
	if *shards == 0 {
		// Adopt the server's count so the per-shard spread report and
		// the flow→shard placement match reality by default.
		*shards = hi.Shards
	}

	cfg := store.SweepConfig{
		Addr: *addr, Flows: *flows, Writes: *writes, Batch: *batch,
		Window: *window, Stall: *stall, Timeout: *timeout,
		Zipf: *zipf, ShardCount: *shards,
	}
	if *verify {
		ok, err := store.VerifySweep(cfg)
		if err != nil {
			log.Fatalf("redplane-udpload: verify: %v (%d/%d flows ok)", err, ok, *flows)
		}
		if ok != *flows {
			log.Fatalf("redplane-udpload: verify: only %d/%d flows held their watermark", ok, *flows)
		}
		fmt.Printf("verify ok: %d/%d flows at watermark %d\n", ok, *flows, *writes)
		return
	}
	res, err := store.RunSweep(cfg)
	if err != nil {
		log.Fatalf("redplane-udpload: %v", err)
	}
	fmt.Printf("processed %d writes (watermark %d/%d) over %d flows in %v — %.0f writes/s (sent %d dgrams, %d retrans)\n",
		res.ProcessedWrites, res.AckedWrites, res.Flows*res.Writes, res.Flows,
		res.Elapsed.Round(time.Millisecond), res.GoodputPps, res.SentDgrams, res.Retrans)
	if len(res.PerShardProcessed) > 0 {
		fmt.Printf("per-shard writes %v — spread max/mean %.2f\n", res.PerShardProcessed, res.ShardSpread)
	}
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(res, "", "  ")
		b = append(b, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			log.Fatalf("redplane-udpload: %v", err)
		}
	}
	if !res.Complete {
		os.Exit(1)
	}
}
