package main

import (
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"redplane/internal/durable"
	"redplane/internal/ring"
	"redplane/internal/store"
	"redplane/internal/wire"
)

// The probes time direct calls into each layer's public functions on the
// bytes the generator sends: a lease request, a one-value write and a
// 16-write batch for flows derived from the run's seed. Each probe is the
// best of probeReps loops of probeCalls calls, one span per loop.

// sink keeps the compiler from discarding a probed call's result.
var sink int

// probe runs fn, which makes calls calls into a layer, probeReps times —
// each after the untimed prep, if any — and returns the best ns per call.
func probe(tr *tracer, parent int, name string, calls int, prep, fn func()) float64 {
	best := 0.0
	for r := 0; r < probeReps; r++ {
		if prep != nil {
			prep()
		}
		sp := tr.begin("probe:"+name, parent, -1)
		t0 := time.Now()
		fn()
		ns := float64(time.Since(t0)) / float64(calls)
		tr.end(sp)
		tr.calls(sp, int64(calls))
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func runProbes(out map[string]float64, cfg runConfig, tr *tracer, parent int) {
	keys := flowKeys(cfg.seed, flowCount)
	salt := saltFor(cfg.seed)
	write := func(flow int, seq uint64) *wire.Message {
		return &wire.Message{Type: wire.MsgRepl, Key: keys[flow], SwitchID: genSwitchID,
			Seq: seq, Vals: []uint64{seq ^ salt}}
	}
	one := write(0, 1)
	frame := one.Marshal(nil)
	batchMsgs := make([]*wire.Message, 16)
	for i := range batchMsgs {
		batchMsgs[i] = write(0, uint64(1+i))
	}
	batchFrame := (&wire.Batch{Msgs: batchMsgs}).Marshal(nil)

	// wire
	buf := make([]byte, 0, 2048)
	out["wire.marshal_ns"] = probe(tr, parent, "wire.marshal", probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			buf = one.Marshal(buf[:0])
		}
		sink += len(buf)
	})
	out["wire.unmarshal_ns"] = probe(tr, parent, "wire.unmarshal", probeCalls, nil, func() {
		var m wire.Message
		for i := 0; i < probeCalls; i++ {
			if m.Unmarshal(frame) != nil {
				panic("probe: own frame does not decode")
			}
		}
		sink += int(m.Seq)
	})
	out["wire.peekkey_ns"] = probe(tr, parent, "wire.peekkey", probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			k, _ := wire.PeekKey(frame)
			sink += int(k.SrcPort)
		}
	})
	out["wire.batch16_unmarshal_ns_per_msg"] = probe(tr, parent, "wire.batch16_unmarshal", probeCalls, nil, func() {
		var bt wire.Batch
		for i := 0; i < probeCalls/16; i++ {
			if bt.Unmarshal(batchFrame) != nil {
				panic("probe: own batch does not decode")
			}
		}
		sink += bt.Len()
	})

	// store: a shard holding the run's flows under lease, as a replica does.
	scfg := store.Config{LeasePeriod: leasePeriod}
	leased := func() *store.Shard {
		sh := store.NewShard(scfg)
		for _, k := range keys {
			sh.Process(1, &wire.Message{Type: wire.MsgLeaseNew, Key: k, SwitchID: genSwitchID})
		}
		return sh
	}
	out["store.lease_new_ns"] = probe(tr, parent, "store.lease_new", flowCount, nil, func() {
		sink += leased().Flows()
	})
	sh := leased()
	seq := uint64(0)
	msgs := make([]*wire.Message, probeCalls)
	out["store.process_repl_ns"] = probe(tr, parent, "store.process_repl", probeCalls, func() {
		// The decoded round-robin writes, as the server's decode step
		// hands them to the shard.
		for i := range msgs {
			if i%flowCount == 0 {
				seq++
			}
			msgs[i] = write(i%flowCount, seq)
		}
	}, func() {
		for _, m := range msgs {
			outs, _ := sh.Process(2, m)
			sink += len(outs)
		}
	})
	var ups []store.Update
	out["store.process_batch16_ns_per_msg"] = probe(tr, parent, "store.process_batch16", probeCalls, nil, func() {
		for i := 0; i < probeCalls/16; i++ {
			f := i % flowCount
			if f == 0 {
				seq += 16
			}
			for j, m := range batchMsgs {
				m.Key, m.Seq = keys[f], seq+uint64(j)
			}
			var outs []store.Output
			outs, ups = sh.ProcessBatch(2, batchMsgs)
			sink += len(outs)
		}
	})
	same := make([]store.Update, 16)
	out["store.coalesce_ns"] = probe(tr, parent, "store.coalesce", probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			for j := range same {
				same[j] = store.Update{Key: keys[0], LastSeq: uint64(j), Exists: true}
			}
			sink += len(store.CoalesceUpdates(same))
		}
	})

	// durable: the WAL record a write produces, staged, and staged in
	// groups of probeSyncGroup under one sync; the sync's own cost is the
	// group's time less its appends.
	rec := store.EncodeUpdate(nil, ups[0])
	dir, _ := walRoot(cfg.outDir)
	defer os.RemoveAll(dir)
	if be, err := durable.NewDirBackend(filepath.Join(dir, "probe")); err == nil {
		if wal, err := durable.OpenWAL(be, 0); err == nil {
			appendNs := probe(tr, parent, "durable.append", probeCalls, func() { wal.DiscardStaged() }, func() {
				for i := 0; i < probeCalls; i++ {
					sink += int(wal.Append(rec))
				}
			})
			wal.DiscardStaged()
			groupNs := probe(tr, parent, "durable.append+sync", probeCalls/probeSyncGroup, nil, func() {
				for i := 0; i < probeCalls/probeSyncGroup; i++ {
					for j := 0; j < probeSyncGroup; j++ {
						wal.Append(rec)
					}
					if wal.Sync() != nil {
						return
					}
				}
			})
			out["durable.append_ns"] = appendNs
			out["durable.sync_ns"] = groupNs - probeSyncGroup*appendNs
			wal.Close()
		}
	}

	// ring: one push and one pop of the server's hand-off queue.
	rg := ring.New[[]byte](1024)
	out["ring.push_pop_ns"] = probe(tr, parent, "ring.push_pop", probeCalls, nil, func() {
		for i := 0; i < probeCalls; i++ {
			rg.Push(frame)
			b, _ := rg.Pop()
			sink += len(b)
		}
	})

	// udp: one datagram of the write's size through the kernel's loopback,
	// sent and received by blocking sockets — the unit the budget prices
	// a syscall with.
	if a, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		defer a.Close()
		to := netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(a.LocalAddr().(*net.UDPAddr).Port))
		rb := make([]byte, 2048)
		out["udp.sendrecv_ns"] = probe(tr, parent, "udp.sendrecv", probeCalls, nil, func() {
			for i := 0; i < probeCalls; i++ {
				if _, err := a.WriteToUDPAddrPort(frame, to); err != nil {
					return
				}
				n, _, err := a.ReadFromUDPAddrPort(rb)
				if err != nil {
					return
				}
				sink += n
			}
		})
	}
}

// hopProbe prices one chain hop: the workload's CPU per write less that
// of the same workload on a single replica, over the two hops removed.
func hopProbe(out map[string]float64, w workload, cfg runConfig, chainCPUus float64, tr *tracer, parent int) {
	if w.replicas < 2 {
		return
	}
	sp := tr.begin("probe:udp.hop", parent, -1)
	defer tr.end(sp)
	solo := w
	solo.replicas = 1
	var res result
	u, err := newUDPInstance(solo, cfg.seed, cfg.outDir, &res)
	if err != nil {
		return
	}
	defer u.close()
	m := newMeter()
	var cpu []float64
	for r := 0; r < 1+hopProbeRounds; r++ {
		s, err := u.round(m, nil, 0, -1)
		if err != nil || s.writes == 0 {
			return
		}
		if r > 0 { // the first round warms up
			cpu = append(cpu, s.cpuNs/1e3/float64(s.writes))
		}
	}
	out["udp.hop_cpu_us"] = (chainCPUus - bestLow(cpu)) / float64(w.replicas-1)
}

// budget reconciles what direct calls can price against the end-to-end
// CPU per write: Σ layer ns × calls per write for wire, store, ring and
// durable on every replica, plus the generator's own send and receive
// (the probe makes exactly its calls). The remainder,
// budget.residual_frac, is what no call from outside can price: the
// servers' batched syscalls and the kernel's UDP path under them, the
// netpoller, goroutine hand-offs and GC. udp.hop_cpu_us splits the same
// total the other way, by replica.
func budget(out map[string]float64, w workload, cpuNsPerWrite float64) map[string]float64 {
	b, r := float64(w.batch), float64(w.replicas)
	terms := map[string]float64{
		// generator: encode the request, decode its ack; tail: encode the ack
		"wire (generator, ack)": 2*out["wire.marshal_ns"] + out["wire.unmarshal_ns"],
		// every replica hands the datagram from receiver to shard
		"ring": r * out["ring.push_pop_ns"] / b,
		// the generator's one send and one receive per datagram
		"udp (generator send+recv)": out["udp.sendrecv_ns"] / b,
	}
	if w.batch == 1 {
		// receiver peeks the key, shard decodes and applies
		terms["wire (replicas)"] = r * (out["wire.peekkey_ns"] + out["wire.unmarshal_ns"])
		terms["store"] = r * out["store.process_repl_ns"]
	} else {
		terms["wire (replicas)"] = r * out["wire.batch16_unmarshal_ns_per_msg"]
		terms["store"] = r * out["store.process_batch16_ns_per_msg"]
	}
	if w.wal {
		// one record per replica per datagram, one sync per group
		terms["durable"] = r*out["durable.append_ns"]/b + out["durable.sync_ns"]*out["durable.syncs_per_kwrite"]/1e3
	}
	var sum float64
	for _, v := range terms {
		sum += v
	}
	out["budget.residual_frac"] = 1 - sum/cpuNsPerWrite
	return terms
}
