// Command redplane-store runs a RedPlane state store server over real
// UDP, speaking the protocol wire format. Chain replication works across
// processes: start the tail first, then each predecessor with -next
// pointing at its successor, and aim switches at the head.
//
//	redplane-store -listen 127.0.0.1:9502                       # tail
//	redplane-store -listen 127.0.0.1:9501 -next 127.0.0.1:9502  # middle
//	redplane-store -listen 127.0.0.1:9500 -next 127.0.0.1:9501  # head
//
// The server shards flows across -shards owner goroutines (default: one
// per core) fed by batched recvmmsg reads, and egresses through
// per-shard sendmmsg batches of up to 32 datagrams each (see DESIGN.md
// "Per-core sharding on the real-UDP path"); a build with
// -tags portablemmsg uses one datagram per syscall instead.
// Every member of one chain must run the same -shards: a commit goes to
// the same-numbered shard of the successor. Pin it when hosts differ.
//
// With -wal-dir the server is durable: every mutation is written to a
// segmented write-ahead log and fsynced before its acknowledgment or
// chain relay leaves the process — one group-commit fsync covers a
// whole drained batch per shard, and the next batch is whatever queued
// while that fsync ran (self-clocked: no window to tune).
// Kill the process (kill -9 included) and restart it with the same
// -wal-dir and it recovers its shards from the newest checkpoints plus
// the WAL tails — no acknowledged write is lost. Each shard logs into
// its own subdirectory (shard-000, ...); a SHARDS marker file pins the
// shard count, since the flow→shard hash must match across restarts.
//
//	redplane-store -listen 127.0.0.1:9502 -wal-dir /var/lib/redplane/tail
//
// With -ctl and -name the store registers with a redplane-ctl daemon
// instead of relying on static -next wiring: the daemon links the
// chain, probes liveness, splices dead members out, and resyncs this
// store when it rejoins after a crash.
//
//	redplane-store -listen 127.0.0.1:9500 -ctl 127.0.0.1:9400 -name s0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"redplane/internal/ctl"
	"redplane/internal/durable"
	"redplane/internal/store"
)

// shardsMarker pins the shard count a WAL directory was written with:
// restarting with a different -shards value would rehash flows onto the
// wrong WALs, so the server refuses a mismatch.
const shardsMarker = "SHARDS"

func main() {
	listen := flag.String("listen", "127.0.0.1:9500", "UDP listen address")
	next := flag.String("next", "", "chain successor address (empty = tail)")
	lease := flag.Duration("lease", time.Second, "lease period")
	snapshotSlots := flag.Int("snapshot-slots", 0, "expected snapshot image size (0 = untracked)")
	maxWaiting := flag.Int("max-waiting", 0,
		"per-flow buffered lease-request queue bound (0 = default)")
	shards := flag.Int("shards", 0, "shard-owner goroutines; flows hash to shards (0 = one per core); must be equal across a chain")
	walDir := flag.String("wal-dir", "",
		"directory for the write-ahead log and checkpoints (empty = volatile, in-memory only)")
	segmentBytes := flag.Int("segment-bytes", 0,
		"WAL segment roll threshold in bytes (0 = default)")
	checkpointBytes := flag.Int("checkpoint-bytes", 0,
		"WAL growth between checkpoints in bytes (0 = default)")
	ctlAddr := flag.String("ctl", "",
		"redplane-ctl control address to register with (empty = no control plane)")
	name := flag.String("name", "", "member name for control-plane registration")
	authToken := flag.String("auth-token", "", "shared secret for the redplane-ctl control plane")
	flag.Parse()

	if *ctlAddr != "" && *name == "" {
		log.Fatal("redplane-store: -ctl requires -name")
	}

	if *shards == 0 {
		*shards = runtime.NumCPU()
	}
	srv, err := store.NewUDPServer(*listen, *next, store.Config{
		LeasePeriod:   *lease,
		SnapshotSlots: *snapshotSlots,
		MaxWaiting:    *maxWaiting,
	}, store.WithUDPShards(*shards))
	if err != nil {
		log.Fatalf("redplane-store: %v", err)
	}
	if *walDir != "" {
		bes, err := shardBackends(*walDir, *shards)
		if err != nil {
			log.Fatalf("redplane-store: wal dir: %v", err)
		}
		replayed, err := srv.EnableDurabilityBackends(bes, store.DurabilityConfig{
			Enabled:         true,
			SegmentBytes:    *segmentBytes,
			CheckpointBytes: *checkpointBytes,
		})
		if err != nil {
			log.Fatalf("redplane-store: recover %s: %v", *walDir, err)
		}
		log.Printf("redplane-store: durable in %s (%d shards, replayed %d WAL records)",
			*walDir, *shards, replayed)
	}
	role := "tail"
	if *next != "" {
		role = "head/middle -> " + *next
	}
	if *ctlAddr != "" {
		agent := ctl.NewStoreAgent(*ctlAddr, *name, srv, *walDir != "")
		agent.SetAuthToken(*authToken)
		go agent.Run()
		defer agent.Close()
		log.Printf("redplane-store: registering with control plane %s as %q", *ctlAddr, *name)
	}
	log.Printf("redplane-store: serving on %v (%s, lease %v, %d shards, %s io)",
		srv.Addr(), role, *lease, srv.Shards(), srv.IOPath())
	if err := srv.Serve(); err != nil {
		log.Fatalf("redplane-store: %v", err)
	}
}

// shardBackends opens one WAL backend per shard under dir. A
// single-shard server keeps the flat pre-sharding layout so existing
// WAL directories stay recoverable; multi-shard servers use shard-NNN
// subdirectories plus the SHARDS marker.
func shardBackends(dir string, shards int) ([]durable.Backend, error) {
	marker := filepath.Join(dir, shardsMarker)
	if b, err := os.ReadFile(marker); err == nil {
		prev, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil {
			return nil, fmt.Errorf("corrupt %s: %q", marker, b)
		}
		if prev != shards {
			return nil, fmt.Errorf("%s was written with %d shards; restart with -shards %d (rehashing flows across WALs is not supported)",
				dir, prev, prev)
		}
	} else {
		// No marker. A non-empty directory is a pre-sharding flat WAL:
		// only a single-shard server can keep using it.
		if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 && shards != 1 {
			return nil, fmt.Errorf("%s holds a pre-sharding WAL; restart with -shards 1", dir)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(marker, []byte(strconv.Itoa(shards)+"\n"), 0o644); err != nil {
			return nil, err
		}
	}
	if shards == 1 {
		be, err := durable.NewDirBackend(dir)
		if err != nil {
			return nil, err
		}
		return []durable.Backend{be}, nil
	}
	bes := make([]durable.Backend, shards)
	for i := range bes {
		be, err := durable.NewDirBackend(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			return nil, err
		}
		bes[i] = be
	}
	return bes, nil
}
