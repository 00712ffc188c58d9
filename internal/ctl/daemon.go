package ctl

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redplane/internal/member"
	"redplane/internal/obs"
	"redplane/internal/repl"
)

// Options configures a Daemon.
type Options struct {
	// Chains lists the expected store member names per chain, in
	// preferred head-first order. Membership is what actually registers;
	// this is the universe the daemon plans over.
	Chains [][]string
	// Vnodes is the flow-space ring's vnode count per chain, shipped to
	// switches so they rebuild the same deterministic table. Default 32.
	Vnodes int
	// ProbeInterval is the liveness ping cadence (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each control RPC (default 4× ProbeInterval).
	ProbeTimeout time.Duration
	// ResyncRounds bounds the rejoin delta-merge loop (default 40).
	ResyncRounds int
	// AuthToken, when non-empty, is the shared secret every register
	// envelope must carry. The comparison is constant-time and a
	// mismatch is rejected before the peer learns anything but
	// "authentication failed" (counted in ctl/auth_rejects). Empty
	// disables authentication — the pre-token behavior.
	AuthToken string
}

func (o *Options) fill() error {
	if len(o.Chains) == 0 {
		return fmt.Errorf("ctl: no chains configured")
	}
	seen := map[string]bool{}
	for _, ch := range o.Chains {
		if len(ch) == 0 {
			return fmt.Errorf("ctl: empty chain")
		}
		for _, n := range ch {
			if n == "" || seen[n] {
				return fmt.Errorf("ctl: duplicate or empty member name %q", n)
			}
			seen[n] = true
		}
	}
	if o.Vnodes == 0 {
		o.Vnodes = 32
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = 4 * o.ProbeInterval
	}
	if o.ResyncRounds == 0 {
		o.ResyncRounds = 40
	}
	return nil
}

// memberConn is one registered store's persistent connection plus the
// request/reply correlation state the daemon needs to command it.
type memberConn struct {
	name   string
	data   string
	shards int
	wal    bool
	cn     *conn

	dead atomic.Bool

	wmu sync.Mutex // serializes sends

	mu       sync.Mutex
	seq      uint64
	pending  map[uint64]chan *Envelope
	counters map[string]uint64 // last ping snapshot, for /metrics
	gauges   map[string]int64
}

// call sends one command and waits for its ack.
func (mc *memberConn) call(cmd *Envelope, timeout time.Duration) (*Envelope, error) {
	mc.mu.Lock()
	mc.seq++
	cmd.Seq = mc.seq
	ch := make(chan *Envelope, 1)
	mc.pending[cmd.Seq] = ch
	mc.mu.Unlock()
	defer func() {
		mc.mu.Lock()
		delete(mc.pending, cmd.Seq)
		mc.mu.Unlock()
	}()
	mc.wmu.Lock()
	err := mc.cn.send(cmd)
	mc.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case reply := <-ch:
		if reply.Err != "" {
			return reply, fmt.Errorf("ctl: %s: %s", cmd.Op, reply.Err)
		}
		return reply, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("ctl: %s to %s timed out", cmd.Op, mc.name)
	}
}

// chainState is one chain's planning state: the configured universe
// and the current view (indices into names, chain order).
type chainState struct {
	names   []string
	view    []int
	viewNum uint64
	wake    chan struct{}
}

func (cs *chainState) signal() {
	select {
	case cs.wake <- struct{}{}:
	default:
	}
}

// Daemon is the redplane-ctl control plane: it accepts member
// registrations, probes liveness, splices dead replicas out of their
// chains, resyncs and relinks rejoiners, and pushes epoch-numbered
// routing tables to switches.
type Daemon struct {
	opt Options
	ln  net.Listener
	reg *obs.Registry

	registers     *obs.Counter
	authRejects   *obs.Counter
	viewChanges   *obs.Counter
	spliceOuts    *obs.Counter
	rejoins       *obs.Counter
	probes        *obs.Counter
	probeFailures *obs.Counter
	routingEpochs *obs.Counter
	rpcErrors     *obs.Counter
	liveMembers   *obs.Gauge

	mu       sync.Mutex
	members  map[string]*memberConn
	switches map[*memberConn]bool
	chains   []*chainState
	epoch    uint64
	heads    []string

	closed   atomic.Bool
	stopCh   chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewDaemon binds the control listener at addr ("host:port", port 0 ok).
func NewDaemon(addr string, opt Options) (*Daemon, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: listen %s: %w", addr, err)
	}
	d := &Daemon{
		opt: opt, ln: ln, reg: obs.NewRegistry(),
		members:  make(map[string]*memberConn),
		switches: make(map[*memberConn]bool),
		heads:    make([]string, len(opt.Chains)),
		stopCh:   make(chan struct{}),
	}
	ns := d.reg.NS("ctl")
	d.registers = ns.Counter("registers")
	d.authRejects = ns.Counter("auth_rejects")
	d.viewChanges = ns.Counter("view_changes")
	d.spliceOuts = ns.Counter("splice_outs")
	d.rejoins = ns.Counter("rejoins")
	d.probes = ns.Counter("probes")
	d.probeFailures = ns.Counter("probe_failures")
	d.routingEpochs = ns.Counter("routing_epochs")
	d.rpcErrors = ns.Counter("rpc_errors")
	d.liveMembers = ns.Gauge("live_members")
	for _, ch := range opt.Chains {
		d.chains = append(d.chains, &chainState{
			names: append([]string(nil), ch...),
			wake:  make(chan struct{}, 1),
		})
	}
	return d, nil
}

// Addr returns the bound control address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Obs exposes the daemon's own metric registry (ctl/* scope).
func (d *Daemon) Obs() *obs.Registry { return d.reg }

// Close stops the daemon and drops every member connection.
func (d *Daemon) Close() error {
	d.closed.Store(true)
	d.stopOnce.Do(func() { close(d.stopCh) })
	err := d.ln.Close()
	d.mu.Lock()
	for _, mc := range d.members {
		mc.cn.c.Close()
	}
	for mc := range d.switches {
		mc.cn.c.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	return err
}

// Serve runs the accept loop, probe loop, and per-chain reconcilers
// until Close.
func (d *Daemon) Serve() error {
	for ci := range d.chains {
		d.wg.Add(1)
		go func(ci int) { defer d.wg.Done(); d.reconciler(ci) }(ci)
	}
	d.wg.Add(1)
	go func() { defer d.wg.Done(); d.probeLoop() }()
	for {
		nc, err := d.ln.Accept()
		if err != nil {
			if d.closed.Load() {
				return nil
			}
			return err
		}
		d.wg.Add(1)
		go func() { defer d.wg.Done(); d.handleConn(nc) }()
	}
}

// handleConn runs one member connection: register, then a read loop
// dispatching acks (stores) or draining pushes (switches).
func (d *Daemon) handleConn(nc net.Conn) {
	cn := newConn(nc)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	reg, err := cn.recv()
	if err != nil || reg.Op != OpRegister {
		nc.Close()
		return
	}
	if d.opt.AuthToken != "" &&
		subtle.ConstantTimeCompare([]byte(reg.Token), []byte(d.opt.AuthToken)) != 1 {
		d.authRejects.Inc()
		log.Printf("ctl: rejected unauthenticated %s register from %s", reg.Role, nc.RemoteAddr())
		cn.send(&Envelope{Op: OpWelcome, Err: "authentication failed"})
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	mc := &memberConn{name: reg.Name, data: reg.Data, shards: reg.Shards,
		wal: reg.WAL, cn: cn, pending: make(map[uint64]chan *Envelope)}
	switch reg.Role {
	case "store":
		ci := d.chainOf(reg.Name)
		if ci < 0 {
			cn.send(&Envelope{Op: OpWelcome, Err: fmt.Sprintf("unknown member %q", reg.Name)})
			nc.Close()
			return
		}
		d.mu.Lock()
		// A chain frame goes to the successor's shard that owns its keys,
		// so every member of a chain must split flows the same way.
		for _, n := range d.chains[ci].names {
			if peer := d.members[n]; peer != nil && n != reg.Name && !peer.dead.Load() && peer.shards != reg.Shards {
				d.mu.Unlock()
				reason := fmt.Sprintf("%s runs %d shards but chain member %s runs %d: pin -shards to one value across the chain",
					reg.Name, reg.Shards, n, peer.shards)
				log.Printf("ctl: rejected store %s", reason)
				cn.send(&Envelope{Op: OpWelcome, Err: reason})
				nc.Close()
				return
			}
		}
		if old := d.members[reg.Name]; old != nil {
			old.dead.Store(true)
			old.cn.c.Close()
		}
		d.members[reg.Name] = mc
		live := len(d.aliveLocked())
		d.mu.Unlock()
		d.registers.Inc()
		d.liveMembers.Set(int64(live))
		cn.send(&Envelope{Op: OpWelcome})
		log.Printf("ctl: store %s registered (data %s, %d shards, wal=%v)",
			reg.Name, reg.Data, reg.Shards, reg.WAL)
		d.chains[ci].signal()
		d.readLoop(mc, ci)
	case "switch":
		d.mu.Lock()
		d.switches[mc] = true
		rt := d.routingLocked()
		d.mu.Unlock()
		cn.send(&Envelope{Op: OpWelcome})
		mc.wmu.Lock()
		cn.send(rt)
		mc.wmu.Unlock()
		d.readLoop(mc, -1)
		d.mu.Lock()
		delete(d.switches, mc)
		d.mu.Unlock()
	default:
		nc.Close()
	}
}

// readLoop pumps one connection until it dies, correlating acks with
// pending calls. For stores, death wakes the owning chain's reconciler.
func (d *Daemon) readLoop(mc *memberConn, ci int) {
	for {
		e, err := mc.cn.recv()
		if err != nil {
			break
		}
		if e.Op != OpAck {
			continue
		}
		mc.mu.Lock()
		ch := mc.pending[e.Seq]
		mc.mu.Unlock()
		if ch != nil {
			select {
			case ch <- e:
			default:
			}
		}
	}
	mc.cn.c.Close()
	if ci >= 0 && !mc.dead.Swap(true) {
		log.Printf("ctl: store %s connection lost", mc.name)
		d.noteLiveness()
		d.chains[ci].signal()
	}
}

// markDead records an RPC failure against a member and wakes its chain.
func (d *Daemon) markDead(mc *memberConn, ci int) {
	if mc.dead.Swap(true) {
		return
	}
	mc.cn.c.Close()
	log.Printf("ctl: store %s marked dead", mc.name)
	d.noteLiveness()
	if ci >= 0 {
		d.chains[ci].signal()
	}
}

func (d *Daemon) noteLiveness() {
	d.mu.Lock()
	live := len(d.aliveLocked())
	d.mu.Unlock()
	d.liveMembers.Set(int64(live))
}

func (d *Daemon) aliveLocked() []*memberConn {
	var out []*memberConn
	for _, mc := range d.members {
		if !mc.dead.Load() {
			out = append(out, mc)
		}
	}
	return out
}

func (d *Daemon) chainOf(name string) int {
	for ci, cs := range d.chains {
		for _, n := range cs.names {
			if n == name {
				return ci
			}
		}
	}
	return -1
}

// probeLoop pings every live store each interval; a timeout or error
// marks the member dead (its chain reconciler takes it from there).
func (d *Daemon) probeLoop() {
	t := time.NewTicker(d.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
		}
		d.mu.Lock()
		targets := d.aliveLocked()
		d.mu.Unlock()
		for _, mc := range targets {
			d.wg.Add(1)
			go func(mc *memberConn) {
				defer d.wg.Done()
				d.probes.Inc()
				reply, err := mc.call(&Envelope{Op: OpPing}, d.opt.ProbeTimeout)
				if err != nil {
					d.probeFailures.Inc()
					d.markDead(mc, d.chainOf(mc.name))
					return
				}
				mc.mu.Lock()
				mc.counters, mc.gauges = reply.Counters, reply.Gauges
				mc.mu.Unlock()
			}(mc)
		}
	}
}

// reconciler is chain ci's single planning goroutine: every wake (and
// on a slow safety tick) it splices dead members, rejoins returners,
// rolls the links out, and refreshes routing. Serializing per chain
// keeps view numbers strictly ordered without a global lock across
// blocking RPCs.
func (d *Daemon) reconciler(ci int) {
	cs := d.chains[ci]
	t := time.NewTicker(4 * d.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-cs.wake:
		case <-t.C:
		}
		for d.reconcileOnce(ci) {
			// Keep going while each pass changes something (e.g. a splice
			// immediately followed by a rejoin).
		}
		d.updateRouting()
	}
}

// reconcileOnce applies at most one membership change (splice or
// rejoin) and reports whether it changed anything.
func (d *Daemon) reconcileOnce(ci int) bool {
	cs := d.chains[ci]
	d.mu.Lock()
	aliveIdx := func(i int) bool {
		mc := d.members[cs.names[i]]
		return mc != nil && !mc.dead.Load()
	}
	// Splice: drop dead members from the current view.
	if alive, changed := member.PlanSplice(cs.view, aliveIdx, 1); changed {
		cs.view = alive
		cs.viewNum++
		view, num := append([]int(nil), cs.view...), cs.viewNum
		d.mu.Unlock()
		d.spliceOuts.Inc()
		d.viewChanges.Inc()
		log.Printf("ctl: chain %d view %d after splice: %v", ci, num, d.viewNames(ci, view))
		d.rollout(ci, view, num)
		return true
	}
	// Rejoin: first configured member that is alive but not in view.
	inView := map[int]bool{}
	for _, i := range cs.view {
		inView[i] = true
	}
	joiner := -1
	for i := range cs.names {
		if aliveIdx(i) && !inView[i] {
			joiner = i
			break
		}
	}
	d.mu.Unlock()
	if joiner < 0 {
		return false
	}
	return d.rejoin(ci, joiner)
}

// rollout pushes set-next to every view member, tail first, so a link
// never points at a member that has not yet learned its own role.
func (d *Daemon) rollout(ci int, view []int, viewNum uint64) {
	cs := d.chains[ci]
	for pos := len(view) - 1; pos >= 0; pos-- {
		d.mu.Lock()
		mc := d.members[cs.names[view[pos]]]
		next := ""
		if pos+1 < len(view) {
			if nmc := d.members[cs.names[view[pos+1]]]; nmc != nil {
				next = nmc.data
			}
		}
		d.mu.Unlock()
		if mc == nil || mc.dead.Load() {
			continue // the next reconcile pass splices it
		}
		_, err := mc.call(&Envelope{Op: OpSetNext, Next: next, Pos: pos, View: viewNum},
			d.opt.ProbeTimeout)
		if err != nil {
			d.rpcErrors.Inc()
			d.markDead(mc, ci)
		}
	}
}

// rejoin runs the three-step resync for a returning member r:
//
//  1. bulk copy — export the current tail's full state and install it
//     into the rejoiner as a replacement (the agent checkpoints after,
//     since installs bypass the normal WAL-covered request path);
//  2. relink — append the rejoiner as the new tail (view bump, tail-
//     first rollout), after which live chain traffic reaches it;
//  3. delta merge — bounded rounds of export-from-predecessor and
//     merge-by-LastSeq install until both digests agree, covering
//     whatever landed between the bulk copy and the relink.
//
// Linking before the delta is safe because replication updates carry
// full per-flow state: any flow written after the relink is already
// correct on the rejoiner, and the merge never regresses a flow the
// live stream advanced past.
func (d *Daemon) rejoin(ci int, r int) bool {
	cs := d.chains[ci]
	d.mu.Lock()
	rmc := d.members[cs.names[r]]
	var tail *memberConn
	if len(cs.view) > 0 {
		tail = d.members[cs.names[cs.view[len(cs.view)-1]]]
	}
	d.mu.Unlock()
	if rmc == nil || rmc.dead.Load() {
		return false
	}
	if tail != nil && !tail.dead.Load() {
		exp, err := tail.call(&Envelope{Op: OpExport}, d.opt.ProbeTimeout)
		if err != nil {
			d.rpcErrors.Inc()
			d.markDead(tail, ci)
			return true // membership changed; re-plan
		}
		d.mu.Lock()
		viewNum := cs.viewNum // fence installs with the current view
		d.mu.Unlock()
		_, err = rmc.call(&Envelope{Op: OpInstall, Updates: exp.Updates, Replace: true,
			View: viewNum}, d.opt.ProbeTimeout)
		if err != nil {
			d.rpcErrors.Inc()
			d.markDead(rmc, ci)
			return true
		}
	}
	d.mu.Lock()
	cs.view = member.PlanRejoin(cs.view, r)
	cs.viewNum++
	view, num := append([]int(nil), cs.view...), cs.viewNum
	d.mu.Unlock()
	d.viewChanges.Inc()
	log.Printf("ctl: chain %d view %d after rejoin of %s: %v",
		ci, num, cs.names[r], d.viewNames(ci, view))
	d.rollout(ci, view, num)
	if tail != nil && !tail.dead.Load() && !rmc.dead.Load() {
		d.deltaResync(ci, tail, rmc, num)
	}
	d.rejoins.Inc()
	return true
}

// deltaResync converges the rejoiner with its predecessor: bounded
// rounds of export → merge-install → digest compare.
func (d *Daemon) deltaResync(ci int, pred, rejoiner *memberConn, viewNum uint64) {
	for round := 0; round < d.opt.ResyncRounds; round++ {
		exp, err := pred.call(&Envelope{Op: OpExport}, d.opt.ProbeTimeout)
		if err != nil {
			d.rpcErrors.Inc()
			d.markDead(pred, ci)
			return
		}
		if _, err := rejoiner.call(&Envelope{Op: OpInstall, Updates: exp.Updates,
			View: viewNum}, d.opt.ProbeTimeout); err != nil {
			d.rpcErrors.Inc()
			d.markDead(rejoiner, ci)
			return
		}
		dp, err1 := pred.call(&Envelope{Op: OpDigest}, d.opt.ProbeTimeout)
		dr, err2 := rejoiner.call(&Envelope{Op: OpDigest}, d.opt.ProbeTimeout)
		if err1 != nil || err2 != nil {
			d.rpcErrors.Inc()
			return
		}
		if dp.Digest == dr.Digest {
			log.Printf("ctl: chain %d resync of %s converged in %d round(s)",
				ci, rejoiner.name, round+1)
			return
		}
		select {
		case <-d.stopCh:
			return
		case <-time.After(d.opt.ProbeInterval / 4):
		}
	}
	log.Printf("ctl: chain %d resync of %s did not converge in %d rounds (live traffic will)",
		ci, rejoiner.name, d.opt.ResyncRounds)
}

func (d *Daemon) viewNames(ci int, view []int) []string {
	names := make([]string, len(view))
	for i, v := range view {
		names[i] = d.chains[ci].names[v]
	}
	return names
}

// updateRouting recomputes per-chain heads and, if any changed, bumps
// the routing epoch and pushes the table to every connected switch.
func (d *Daemon) updateRouting() {
	d.mu.Lock()
	changed := false
	for ci, cs := range d.chains {
		head := ""
		if len(cs.view) > 0 {
			if mc := d.members[cs.names[cs.view[0]]]; mc != nil {
				head = mc.data
			}
		}
		if d.heads[ci] != head {
			d.heads[ci] = head
			changed = true
		}
	}
	if !changed {
		d.mu.Unlock()
		return
	}
	d.epoch++
	rt := d.routingLocked()
	var conns []*memberConn
	for mc := range d.switches {
		conns = append(conns, mc)
	}
	d.mu.Unlock()
	d.routingEpochs.Inc()
	log.Printf("ctl: routing epoch %d: heads %v", rt.Epoch, rt.Heads)
	for _, mc := range conns {
		mc.wmu.Lock()
		err := mc.cn.send(rt)
		mc.wmu.Unlock()
		if err != nil {
			mc.cn.c.Close()
		}
	}
}

func (d *Daemon) routingLocked() *Envelope {
	return &Envelope{Op: OpRouting, Epoch: d.epoch,
		Heads: append([]string(nil), d.heads...), Vnodes: d.opt.Vnodes}
}

// Status is the /status document: a point-in-time view of membership
// and routing.
type Status struct {
	Epoch  uint64        `json:"epoch"`
	Vnodes int           `json:"vnodes"`
	Heads  []string      `json:"heads"`
	Chains []ChainStatus `json:"chains"`
}

// ChainStatus is one chain's /status entry.
type ChainStatus struct {
	Names   []string       `json:"names"`
	ViewNum uint64         `json:"view"`
	View    []string       `json:"members"` // current view, head first
	Status  []MemberStatus `json:"status"`
}

// MemberStatus is one configured member's /status entry.
type MemberStatus struct {
	Name   string `json:"name"`
	Data   string `json:"data,omitempty"`
	Alive  bool   `json:"alive"`
	Shards int    `json:"shards,omitempty"`
	WAL    bool   `json:"wal,omitempty"`
}

// CurrentStatus snapshots membership and routing.
func (d *Daemon) CurrentStatus() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{Epoch: d.epoch, Vnodes: d.opt.Vnodes,
		Heads: append([]string(nil), d.heads...)}
	for ci, cs := range d.chains {
		chs := ChainStatus{Names: append([]string(nil), cs.names...), ViewNum: cs.viewNum}
		for _, v := range cs.view {
			chs.View = append(chs.View, cs.names[v])
		}
		for _, n := range cs.names {
			ms := MemberStatus{Name: n}
			if mc := d.members[n]; mc != nil {
				ms.Data, ms.Alive = mc.data, !mc.dead.Load()
				ms.Shards, ms.WAL = mc.shards, mc.wal
			}
			chs.Status = append(chs.Status, ms)
		}
		_ = ci
		st.Chains = append(st.Chains, chs)
	}
	return st
}

// CollectDigests asks every live store for its committed-state digest
// (the shard-count-invariant fold), keyed by member name. Dead or
// unresponsive members are omitted.
func (d *Daemon) CollectDigests() map[string]uint64 {
	d.mu.Lock()
	targets := d.aliveLocked()
	d.mu.Unlock()
	out := make(map[string]uint64, len(targets))
	for _, mc := range targets {
		reply, err := mc.call(&Envelope{Op: OpDigest}, d.opt.ProbeTimeout)
		if err != nil {
			continue
		}
		out[mc.name] = reply.Digest
	}
	return out
}

// HTTPHandler serves /metrics (Prometheus text exposition: the
// daemon's own ctl/* registry plus every store's last-probed counters,
// labeled by member), /status (JSON membership snapshot), and
// /digests (JSON member→state-digest map, for chain-agreement checks).
func (d *Daemon) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(d.CurrentStatus())
	})
	mux.HandleFunc("/digests", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		digests := d.CollectDigests()
		text := make(map[string]string, len(digests))
		for n, v := range digests {
			text[n] = fmt.Sprintf("%016x", v)
		}
		json.NewEncoder(w).Encode(text)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.WritePrometheus(w, d.reg)
		d.writeMemberMetrics(w)
	})
	return mux
}

// writeMemberMetrics renders every store's last ping snapshot as
// labeled series, with one # TYPE line per metric name.
func (d *Daemon) writeMemberMetrics(w http.ResponseWriter) {
	d.mu.Lock()
	type sample struct {
		member string
		value  int64
		gauge  bool
	}
	series := map[string][]sample{}
	for name, mc := range d.members {
		mc.mu.Lock()
		for k, v := range mc.counters {
			pn := obs.PromName(k)
			series[pn] = append(series[pn], sample{member: name, value: int64(v)})
		}
		for k, v := range mc.gauges {
			pn := obs.PromName(k)
			series[pn] = append(series[pn], sample{member: name, value: v, gauge: true})
		}
		mc.mu.Unlock()
	}
	d.mu.Unlock()
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ss := series[n]
		sort.Slice(ss, func(a, b int) bool { return ss[a].member < ss[b].member })
		kind := "counter"
		if ss[0].gauge {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", n, kind)
		for _, s := range ss {
			fmt.Fprintf(w, "%s{member=%q} %d\n", n, s.member, s.value)
		}
	}
}

// interface check: repl.Update must stay JSON-serializable for the
// export/install envelopes.
var _ = func() bool { _, err := json.Marshal(repl.Update{}); return err == nil }()
