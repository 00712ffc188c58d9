package ctl

import (
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"redplane/internal/packet"
	"redplane/internal/store"
	"redplane/internal/wire"
)

// testMember is one in-process store plus its control agent.
type testMember struct {
	srv   *store.UDPServer
	agent *StoreAgent
}

func startMember(t *testing.T, ctlAddr, name string) *testMember {
	t.Helper()
	srv, err := store.NewUDPServer("127.0.0.1:0", "", store.Config{LeasePeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	ag := NewStoreAgent(ctlAddr, name, srv, false)
	go ag.Run()
	m := &testMember{srv: srv, agent: ag}
	t.Cleanup(func() { m.stop() })
	return m
}

func (m *testMember) stop() {
	m.agent.Close()
	m.srv.Close()
}

func startDaemon(t *testing.T, chains [][]string) *Daemon {
	t.Helper()
	d, err := NewDaemon("127.0.0.1:0", Options{Chains: chains,
		ProbeInterval: 20 * time.Millisecond, Vnodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve() }()
	t.Cleanup(func() { d.Close() })
	return d
}

// waitView polls until chain ci's view is exactly want (names, head
// first).
func waitView(t *testing.T, d *Daemon, ci int, want ...string) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.CurrentStatus()
		got := st.Chains[ci].View
		if len(got) == len(want) {
			same := true
			for i := range got {
				if got[i] != want[i] {
					same = false
					break
				}
			}
			if same {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain %d view = %v, want %v", ci, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func ctlKey(n byte) packet.FiveTuple {
	return packet.FiveTuple{Src: packet.MakeAddr(10, 1, 0, n), Dst: packet.MakeAddr(10, 1, 0, 200),
		SrcPort: uint16(n), DstPort: 9, Proto: packet.ProtoUDP}
}

// TestDaemonLinksChainAndRoutes pins the bootstrap path: stores that
// start UNLINKED register with the daemon, which links them into a
// chain (tail-first set-next rollout), announces positions, and
// publishes the head in an epoch-numbered routing table. A write
// through the published head must replicate to every member.
func TestDaemonLinksChainAndRoutes(t *testing.T) {
	d := startDaemon(t, [][]string{{"s0", "s1", "s2"}})
	// Start members one at a time so the bootstrap view lands in
	// configured order (the daemon joins whoever is alive; concurrent
	// registrations would race for the head slot).
	ms := map[string]*testMember{}
	for i, n := range []string{"s0", "s1", "s2"} {
		ms[n] = startMember(t, d.Addr().String(), n)
		waitView(t, d, 0, []string{"s0", "s1", "s2"}[:i+1]...)
	}
	st := waitView(t, d, 0, "s0", "s1", "s2")
	if st.Epoch == 0 {
		t.Fatalf("routing epoch still 0 after bootstrap")
	}

	r, err := FetchRouting(d.Addr().String(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	head := r.HeadFor(ctlKey(1))
	if head != ms["s0"].srv.Addr().String() {
		t.Fatalf("routing head = %q, want s0 (%s)", head, ms["s0"].srv.Addr())
	}

	c, err := store.DialUDP(head, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: ctlKey(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: ctlKey(1), Seq: 1, Vals: []uint64{11}}); err != nil {
		t.Fatal(err)
	}
	for n, m := range ms {
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, seq, ok := m.srv.State(ctlKey(1))
			if ok && seq == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %s never converged", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The daemon announced positions: the tail must fence direct writes.
	if got := ms["s2"].srv.ChainPos(); got != 2 {
		t.Fatalf("s2 chain pos = %d", got)
	}
	hi, err := store.HelloUDP(ms["s0"].srv.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ChainPos != 0 || !hi.HasNext || hi.View == 0 {
		t.Fatalf("head hello = %+v", hi)
	}
}

// TestDaemonSpliceAndRejoin pins the failure path end to end, in
// process: killing the middle member splices it out (view shrinks,
// links rewire around it, writes keep committing), and restarting it
// rejoins it at the tail with state resynced to digest equality.
func TestDaemonSpliceAndRejoin(t *testing.T) {
	d := startDaemon(t, [][]string{{"s0", "s1", "s2"}})
	ms := map[string]*testMember{}
	for i, n := range []string{"s0", "s1", "s2"} {
		ms[n] = startMember(t, d.Addr().String(), n)
		waitView(t, d, 0, []string{"s0", "s1", "s2"}[:i+1]...)
	}

	head := ms["s0"].srv.Addr().String()
	c, err := store.DialUDP(head, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(&wire.Message{Type: wire.MsgLeaseNew, Key: ctlKey(7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: ctlKey(7), Seq: 1, Vals: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// Kill the middle member: both its socket and its control conn die,
	// as with a real kill -9.
	ms["s1"].stop()
	st := waitView(t, d, 0, "s0", "s2")
	if st.Chains[0].ViewNum < 2 {
		t.Fatalf("view num = %d after splice, want >= 2", st.Chains[0].ViewNum)
	}

	// Writes still commit through the rewired two-member chain.
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: ctlKey(7), Seq: 2, Vals: []uint64{2}}); err != nil {
		t.Fatalf("write after splice: %v", err)
	}

	// Restart s1: it rejoins at the tail and converges.
	ms["s1"] = startMember(t, d.Addr().String(), "s1")
	waitView(t, d, 0, "s0", "s2", "s1")
	deadline := time.Now().Add(5 * time.Second)
	for ms["s1"].srv.Digest() != ms["s0"].srv.Digest() {
		if time.Now().After(deadline) {
			t.Fatalf("rejoined member never converged: %x vs %x",
				ms["s1"].srv.Digest(), ms["s0"].srv.Digest())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// New tail acks: a write after rejoin lands on all three.
	if _, err := c.Request(&wire.Message{Type: wire.MsgRepl, Key: ctlKey(7), Seq: 3, Vals: []uint64{3}}); err != nil {
		t.Fatalf("write after rejoin: %v", err)
	}
	if _, seq, ok := ms["s1"].srv.State(ctlKey(7)); !ok {
		t.Fatal("rejoined member missing flow")
	} else if seq != 3 {
		// The relay may still be in flight; wait briefly.
		dl := time.Now().Add(time.Second)
		for {
			_, seq, _ = ms["s1"].srv.State(ctlKey(7))
			if seq == 3 {
				break
			}
			if time.Now().After(dl) {
				t.Fatalf("rejoined tail at seq %d, want 3", seq)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got := d.Obs().Counters()["ctl/rejoins"]; got < 1 {
		t.Fatalf("rejoins counter = %d", got)
	}
	if got := d.Obs().Counters()["ctl/view_changes"]; got < 2 {
		t.Fatalf("view_changes counter = %d", got)
	}
}

// TestAgentFencesStaleViews pins the command fencing: once an agent
// has applied view N, commands from an older view are rejected.
func TestAgentFencesStaleViews(t *testing.T) {
	srv, err := store.NewUDPServer("127.0.0.1:0", "", store.Config{LeasePeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	a := NewStoreAgent("unused", "s0", srv, false)
	if r := a.handle(&Envelope{Op: OpSetNext, Next: "", Pos: 1, View: 5}); r.Err != "" {
		t.Fatalf("view 5 rejected: %v", r.Err)
	}
	if r := a.handle(&Envelope{Op: OpSetNext, Next: "", Pos: 0, View: 4}); r.Err == "" {
		t.Fatal("stale view 4 accepted after view 5")
	}
	if srv.ChainPos() != 1 {
		t.Fatalf("stale command mutated state: pos = %d", srv.ChainPos())
	}
	if r := a.handle(&Envelope{Op: OpInstall, View: 4}); r.Err == "" {
		t.Fatal("stale install accepted")
	}
}

// TestDaemonHTTPEndpoints pins the observability surface: /status is
// valid JSON with the live view, and /metrics is parseable Prometheus
// text exposition including daemon counters and member-labeled series.
func TestDaemonHTTPEndpoints(t *testing.T) {
	d := startDaemon(t, [][]string{{"s0", "s1"}})
	for i, n := range []string{"s0", "s1"} {
		startMember(t, d.Addr().String(), n)
		waitView(t, d, 0, []string{"s0", "s1"}[:i+1]...)
	}

	// Let at least one probe cycle gather member metric snapshots.
	deadline := time.Now().Add(2 * time.Second)
	for d.Obs().Counters()["ctl/probes"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no probes ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ts := httptest.NewServer(d.HTTPHandler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), `"members":["s0","s1"]`) {
		t.Fatalf("/status missing view: %s", body)
	}

	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	out := string(body)
	for _, want := range []string{"# TYPE redplane_ctl_view_changes counter",
		"redplane_ctl_live_members 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	// Strict exposition check: every line is a TYPE comment or
	// `name value` / `name{member="x"} value`.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
	}
	if !strings.Contains(out, `member="s0"`) {
		t.Fatalf("/metrics missing member-labeled series:\n%s", out)
	}
}

// TestAuthTokenGatesRegistration pins the control-socket auth: a daemon
// run with an auth token rejects store and switch registrations whose
// hello carries the wrong (or no) token — counted in ctl/auth_rejects —
// while the right token works end to end.
func TestAuthTokenGatesRegistration(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", Options{Chains: [][]string{{"s0"}},
		ProbeInterval: 20 * time.Millisecond, Vnodes: 8, AuthToken: "swordfish"})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve() }()
	t.Cleanup(func() { d.Close() })

	// Wrong switch token: the welcome carries the rejection.
	if _, err := FetchRouting(d.Addr().String(), "sardine", 0); err == nil ||
		!strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("wrong switch token: err = %v, want authentication failed", err)
	}
	// Missing store token: never admitted to the view.
	srv, err := store.NewUDPServer("127.0.0.1:0", "", store.Config{LeasePeriod: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	bad := NewStoreAgent(d.Addr().String(), "s0", srv, false)
	go bad.Run()
	deadline := time.Now().Add(2 * time.Second)
	for d.Obs().Counters()["ctl/auth_rejects"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("auth_rejects = %d, want >= 2", d.Obs().Counters()["ctl/auth_rejects"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.CurrentStatus().Chains[0].View; len(got) != 0 {
		t.Fatalf("unauthenticated store admitted to view %v", got)
	}
	if got := d.Obs().Counters()["ctl/registers"]; got != 0 {
		t.Fatalf("registers = %d after rejected hellos, want 0", got)
	}
	bad.Close()

	// Right token: registration, view membership, and routing all work.
	good := NewStoreAgent(d.Addr().String(), "s0", srv, false)
	good.SetAuthToken("swordfish")
	go good.Run()
	t.Cleanup(good.Close)
	waitView(t, d, 0, "s0")
	r, err := FetchRouting(d.Addr().String(), "swordfish", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Heads[0] != srv.Addr().String() {
		t.Fatalf("routing head = %q, want %s", r.Heads[0], srv.Addr())
	}
}

// TestDaemonRefusesShardCountMismatch pins the chain invariant chain
// frames rely on: a store whose shard count differs from its chain's
// seated members is not seated, and the welcome says why.
func TestDaemonRefusesShardCountMismatch(t *testing.T) {
	d := startDaemon(t, [][]string{{"s0", "s1"}, {"t0"}})
	startMember(t, d.Addr().String(), "s0") // one shard
	waitView(t, d, 0, "s0")

	register := func(name string, shards int) *Envelope {
		t.Helper()
		nc, err := net.Dial("tcp", d.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		cn := newConn(nc)
		if err := cn.send(&Envelope{Op: OpRegister, Role: "store", Name: name,
			Data: "127.0.0.1:1", Shards: shards}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		w, err := cn.recv()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if w := register("s1", 2); !strings.Contains(w.Err, "2 shards") || !strings.Contains(w.Err, "s0 runs 1") {
		t.Fatalf("mismatched s1 welcomed with Err=%q", w.Err)
	}
	if got := d.CurrentStatus().Chains[0].View; len(got) != 1 || got[0] != "s0" {
		t.Fatalf("chain 0 view = %v after the rejected register, want [s0]", got)
	}
	// Another chain is another invariant: a different count there is fine.
	if w := register("t0", 2); w.Err != "" {
		t.Fatalf("t0 (own chain) refused: %s", w.Err)
	}
}
