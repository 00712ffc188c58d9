package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"redplane/internal/durable"
	"redplane/internal/store"
)

// udpInstance hosts the system under test in this process through the
// constructors cmd/redplane-store uses: UDPServers chained by nextAddr
// over real loopback sockets, each with a DirBackend WAL when the
// workload asks for one, driven by the benchmark's own generator.
type udpInstance struct {
	w       workload
	servers []*store.UDPServer // head first
	served  []chan error
	walDirs []string
	gen     *loadgen

	// Counters summed over replicas: at the first measured round, and at
	// the output check (which, with a WAL, stops the servers).
	first, last store.UDPStats
	obs0, obs1  map[string]uint64
	queueHigh   int64
	flowsHeld   int

	replayMs float64
}

// walRoot picks where WALs live: tmpfs, so that device flush time — which
// spread 15 % run to run on this class of host — stays out of the
// numbers. It falls back to the output directory.
func walRoot(outDir string) (dir, kind string) {
	if d, err := os.MkdirTemp("/dev/shm", "redplane-e2e-"); err == nil {
		return d, "tmpfs (/dev/shm)"
	}
	d := filepath.Join(outDir, "wal")
	return d, "output directory (no tmpfs: device flush time is in the numbers)"
}

func newUDPInstance(w workload, seed int64, outDir string, res *result) (*udpInstance, error) {
	u := &udpInstance{w: w}
	var root string
	if w.wal {
		var kind string
		root, kind = walRoot(outDir)
		if len(res.Notes) == 0 {
			res.Notes = append(res.Notes, "WAL on "+kind)
		}
	}
	var opts []store.UDPOption
	if w.replicas == 1 {
		opts = append(opts, store.WithUDPShards(w.gomaxprocs()))
	}
	// Tail first: each predecessor needs its successor's bound address.
	next := ""
	for i := w.replicas - 1; i >= 0; i-- {
		srv, err := store.NewUDPServer("127.0.0.1:0", next, store.Config{LeasePeriod: leasePeriod}, opts...)
		if err != nil {
			u.close()
			return nil, err
		}
		u.servers = append([]*store.UDPServer{srv}, u.servers...)
		if w.wal {
			dir := filepath.Join(root, fmt.Sprintf("replica%d", i))
			u.walDirs = append([]string{dir}, u.walDirs...)
			if _, err := openWAL(srv, dir); err != nil {
				u.close()
				return nil, err
			}
		}
		next = srv.Addr().String()
	}
	for _, srv := range u.servers {
		ch := make(chan error, 1)
		u.served = append(u.served, ch)
		go func(s *store.UDPServer) { ch <- s.Serve() }(srv)
	}
	gen, err := newLoadgen(u.servers[0].Addr(), seed, w.batch)
	if err != nil {
		u.close()
		return nil, err
	}
	u.gen = gen
	lease, err := gen.run(true, flowCount)
	if err != nil {
		u.close()
		return nil, err
	}
	if lease.acked != flowCount {
		u.close()
		return nil, fmt.Errorf("leased %d of %d flows", lease.acked, flowCount)
	}
	return u, nil
}

// openWAL attaches a DirBackend in dir to srv, one sub-directory per
// shard as cmd/redplane-store lays them out, and returns the WAL records
// replayed.
func openWAL(srv *store.UDPServer, dir string) (int, error) {
	bes := make([]durable.Backend, srv.Shards())
	for i := range bes {
		be, err := durable.NewDirBackend(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			return 0, err
		}
		bes[i] = be
	}
	return srv.EnableDurabilityBackends(bes, store.DurabilityConfig{Enabled: true})
}

// stopServers closes every server and waits for its goroutines.
func (u *udpInstance) stopServers() {
	for _, s := range u.servers {
		s.Close()
	}
	for _, ch := range u.served {
		<-ch
	}
	u.servers, u.served = nil, nil
}

func (u *udpInstance) close() {
	if u.gen != nil {
		u.gen.close()
	}
	u.stopServers()
	if len(u.walDirs) > 0 {
		os.RemoveAll(filepath.Dir(u.walDirs[0]))
		u.walDirs = nil
	}
}

// stats sums the servers' counters.
func (u *udpInstance) stats() (sum store.UDPStats, queueHigh int64) {
	for _, s := range u.servers {
		st := s.Stats()
		sum.RxBatches += st.RxBatches
		sum.RxDgrams += st.RxDgrams
		sum.TxBatches += st.TxBatches
		sum.TxDgrams += st.TxDgrams
		sum.Replies += st.Replies
		sum.Relays += st.Relays
		sum.Sheds += st.Sheds
		for _, ps := range st.PerShard {
			if ps.QueueHigh > queueHigh {
				queueHigh = ps.QueueHigh
			}
		}
	}
	return sum, queueHigh
}

// obsCounters sums the durability counters (store-shard<i>/...) of every
// replica by their name after the scope.
func (u *udpInstance) obsCounters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, s := range u.servers {
		for k, v := range s.Obs().Counters() {
			if scope, name, ok := strings.Cut(k, "/"); ok && strings.HasPrefix(scope, "store-shard") {
				sum[name] += v
			}
		}
	}
	return sum
}

func (u *udpInstance) mark() {
	u.first, _ = u.stats()
	u.obs0 = u.obsCounters()
	u.gen.sentDgrams = 0
}

func (u *udpInstance) round(m *meter, tr *tracer, parent, n int) (roundSample, error) {
	rsp := tr.begin("round", parent, n)
	m.start()
	var c0 store.UDPStats
	if tr != nil {
		c0, _ = u.stats()
	}
	g, err := u.gen.run(false, u.w.dgrams)
	if tr != nil {
		c1, _ := u.stats()
		tr.counters(rsp, map[string]float64{
			"udp.rx_batches": float64(c1.RxBatches - c0.RxBatches),
			"udp.rx_dgrams":  float64(c1.RxDgrams - c0.RxDgrams),
			"udp.tx_batches": float64(c1.TxBatches - c0.TxBatches),
			"udp.tx_dgrams":  float64(c1.TxDgrams - c0.TxDgrams),
			"udp.relays":     float64(c1.Relays - c0.Relays),
			"udp.replies":    float64(c1.Replies - c0.Replies),
			"udp.sheds":      float64(c1.Sheds - c0.Sheds),
		})
	}
	m.stop()
	if err != nil {
		return roundSample{}, err
	}
	s := m.sample
	// The round is the generator's own window, first send to last ack.
	s.wallNs = float64(g.endNs - g.startNs)
	s.attempted = int64(g.dgrams * u.w.batch)
	s.writes = int64(g.acked * u.w.batch)
	s.retrans = g.retrans
	s.p50us, s.p99us = u.gen.latencyUs()
	tr.add("send", rsp, n, u.gen.base, g.startNs, g.sendDoneNs, int64(g.dgrams))
	tr.add("drain", rsp, n, u.gen.base, g.sendDoneNs, g.endNs, 0)
	vsp := tr.begin("verify", rsp, n)
	if u.gen.rejects.Load()+u.gen.badAcks.Load() > 0 {
		s.writes = 0 // a rejected or malformed ack fails the round
	}
	tr.end(vsp)
	tr.end(rsp)
	return s, nil
}

func (u *udpInstance) layers(out map[string]float64, rounds []roundSample) {
	var writes float64
	for _, s := range rounds {
		writes += float64(s.writes)
	}
	d := func(a, b uint64) float64 { return float64(a - b) }
	rxB, txB := d(u.last.RxBatches, u.first.RxBatches), d(u.last.TxBatches, u.first.TxBatches)
	out["udp.syscalls_per_write"] = (rxB + txB) / writes
	out["udp.rx_dgrams_per_batch"] = d(u.last.RxDgrams, u.first.RxDgrams) / rxB
	out["udp.tx_dgrams_per_batch"] = d(u.last.TxDgrams, u.first.TxDgrams) / txB
	out["udp.relays_per_dgram"] = d(u.last.Relays, u.first.Relays) / float64(u.gen.sentDgrams)
	out["udp.sheds"] = d(u.last.Sheds, u.first.Sheds)
	out["udp.queue_high"] = float64(u.queueHigh)
	out["durable.syncs_per_kwrite"] = d(u.obs1["fsyncs"], u.obs0["fsyncs"]) * 1e3 / writes
	out["durable.wal_bytes_per_write"] = d(u.obs1["wal_bytes"], u.obs0["wal_bytes"]) / writes
	out["durable.replay_ms"] = u.replayMs
	out["store.flows"] = float64(u.flowsHeld)
}

// verify checks that every replica holds, for every flow, exactly the
// last acknowledged sequence and its value, that the replicas' digests
// agree, and — with a WAL — that fresh servers reopened on the three
// directories recover every acknowledged watermark.
func (u *udpInstance) verify(tr *tracer, parent int) (failed int64, problems []string) {
	sp := tr.begin("verify", parent, -1)
	defer tr.end(sp)
	u.last, u.queueHigh = u.stats()
	u.obs1 = u.obsCounters()
	// check counts the flows srv does not hold at their acknowledged write.
	check := func(srv *store.UDPServer, who string) int {
		bad := 0
		for i := range u.gen.flows {
			f := &u.gen.flows[i]
			acked := f.acked.Load()
			vals, lastSeq, ok := srv.State(f.key)
			if !ok || lastSeq != acked || len(vals) != 1 || vals[0] != u.gen.value(acked) {
				bad++
			}
		}
		if bad > 0 {
			failed += int64(bad)
			problems = append(problems, fmt.Sprintf("%s: %d of %d flows do not hold their last acknowledged write", who, bad, len(u.gen.flows)))
		}
		return bad
	}
	digest := u.servers[0].Digest()
	for i, srv := range u.servers {
		bad := check(srv, fmt.Sprintf("replica %d", i))
		if i == 0 {
			u.flowsHeld = len(u.gen.flows) - bad
		}
		if d := srv.Digest(); d != digest {
			failed++
			problems = append(problems, fmt.Sprintf("replica %d digest %016x differs from head's %016x", i, d, digest))
		}
	}
	if rej, bad := u.gen.rejects.Load(), u.gen.badAcks.Load(); rej+bad > 0 {
		failed += rej + bad
		problems = append(problems, fmt.Sprintf("%d lease rejects, %d malformed or unexpected acks", rej, bad))
	}
	if !u.w.wal {
		return failed, problems
	}
	// Crash-recovery check: stop the chain, then recover each directory
	// into a server that never saw the traffic.
	u.stopServers()
	rsp := tr.begin("durable.replay", sp, -1)
	t0 := time.Now()
	var reopened []*store.UDPServer
	for i, dir := range u.walDirs {
		srv, err := store.NewUDPServer("127.0.0.1:0", "", store.Config{LeasePeriod: leasePeriod})
		if err == nil {
			if _, err = openWAL(srv, dir); err != nil {
				srv.Close()
			}
		}
		if err != nil {
			failed++
			problems = append(problems, fmt.Sprintf("reopen WAL %d: %v", i, err))
			continue
		}
		reopened = append(reopened, srv)
	}
	u.replayMs = float64(time.Since(t0)) / 1e6
	tr.end(rsp)
	for i, srv := range reopened {
		check(srv, fmt.Sprintf("recovered replica %d", i))
		srv.Close()
	}
	return failed, problems
}
