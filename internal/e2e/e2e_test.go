package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"redplane/internal/ctl"
	"redplane/internal/store"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitView polls the daemon's /status until chain 0's view equals want.
func waitView(t *testing.T, httpBase string, timeout time.Duration, want ...string) ctl.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last ctl.Status
	for {
		var st ctl.Status
		res, err := http.Get(httpBase + "/status")
		if err == nil {
			err = json.NewDecoder(res.Body).Decode(&st)
			res.Body.Close()
		}
		if err == nil {
			last = st
			got := st.Chains[0].View
			if len(got) == len(want) {
				same := true
				for i := range got {
					if got[i] != want[i] {
						same = false
					}
				}
				if same {
					return st
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never became %v; last status %+v", want, last)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestCtlKillRestartUnderLoad is the multi-process control-plane
// scenario: a redplane-ctl daemon links three durable redplane-store
// processes into a chain, redplane-udpload resolves the head from the
// daemon and runs a windowed sweep against it, and the tail is kill
// -9ed mid-load and later restarted. The daemon must detect the crash,
// splice the chain under a new view, resync and relink the returning
// replica; the sweep must finish with zero lost acknowledged writes,
// redplane-switch must then drive the resynced chain, and all replicas
// must end in digest agreement with /metrics recording the churn.
func TestCtlKillRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	ctlAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t, "tcp"))
	httpAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t, "tcp"))
	httpBase := "http://" + httpAddr

	daemon := spawn(t, "redplane-ctl", "redplane-ctl",
		"-listen", ctlAddr, "-http", httpAddr,
		"-chains", "s0,s1,s2", "-probe-interval", "50ms")
	daemon.waitLog(`serving on`, 5*time.Second)

	names := []string{"s0", "s1", "s2"}
	addrs := map[string]string{}
	wals := map[string]string{}
	procs := map[string]*proc{}
	startStore := func(n, label string) *proc {
		p := spawn(t, label, "redplane-store",
			"-listen", addrs[n], "-shards", "2", "-lease", "10s",
			"-wal-dir", wals[n], "-ctl", ctlAddr, "-name", n)
		p.waitLog(`serving on`, 5*time.Second)
		procs[n] = p
		return p
	}
	// Sequential starts keep the bootstrap view in configured order, so
	// s0 is the head the daemon routes the sweep to.
	for i, n := range names {
		addrs[n] = fmt.Sprintf("127.0.0.1:%d", freePort(t, "udp"))
		wals[n] = filepath.Join(t.TempDir(), n)
		startStore(n, n)
		waitView(t, httpBase, 10*time.Second, names[:i+1]...)
	}

	head := addrs["s0"]
	// The deployment handshake sees the daemon's announcements.
	hi, err := store.VerifyDeployTarget(head, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ChainPos != 0 || !hi.HasNext || hi.View == 0 {
		t.Fatalf("head hello = %+v", hi)
	}
	if _, err := store.HelloUDP(addrs["s2"], 0); err != nil {
		t.Fatal(err)
	}

	// 16 flows x 30000 writes: long enough that the kill lands mid-sweep.
	const flows, writes = 16, 30000
	sweep := []string{"-flows", fmt.Sprint(flows), "-writes", fmt.Sprint(writes), "-shards", "2"}
	resFile := filepath.Join(t.TempDir(), "sweep.json")
	sweepStart := time.Now()
	load := spawn(t, "redplane-udpload", "redplane-udpload", append([]string{
		"-ctl", ctlAddr, "-json", resFile,
		"-batch", "16", "-stall", "50ms", "-timeout", "180s"}, sweep...)...)
	load.waitLog(`routing epoch \d+, head `+regexp.QuoteMeta(head), 5*time.Second)

	// Kill the tail mid-load with SIGKILL — no shutdown path runs.
	time.Sleep(300 * time.Millisecond)
	before := waitView(t, httpBase, 5*time.Second, "s0", "s1", "s2")
	killAt := time.Since(sweepStart)
	procs["s2"].kill9()
	st := waitView(t, httpBase, 10*time.Second, "s0", "s1")
	if st.Chains[0].ViewNum <= before.Chains[0].ViewNum {
		t.Fatalf("splice did not bump the view: %d -> %d",
			before.Chains[0].ViewNum, st.Chains[0].ViewNum)
	}

	// Restart it: same WAL dir, same port. It must replay its WAL,
	// re-register, and be resynced back in at the tail.
	p := startStore("s2", "s2-restart")
	p.waitLog(`durable in .*replayed \d+ WAL records`, 5*time.Second)
	st = waitView(t, httpBase, 20*time.Second, "s0", "s1", "s2")
	if st.Epoch == 0 {
		t.Fatal("routing epoch never advanced")
	}

	// The sweep exits 0 only if complete; its JSON result says when.
	load.waitOK(3 * time.Minute)
	b, err := os.ReadFile(resFile)
	if err != nil {
		t.Fatal(err)
	}
	var res store.SweepResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("%s: %v", resFile, err)
	}
	if !res.Complete || res.AckedWrites != flows*writes {
		t.Fatalf("sweep acked %d/%d writes (complete=%v)", res.AckedWrites, flows*writes, res.Complete)
	}
	if res.Elapsed <= killAt {
		t.Fatalf("sweep finished in %v, before the kill at %v — not a mid-load crash",
			res.Elapsed, killAt)
	}

	// No lost acked writes: every flow still reports its final
	// watermark (the restarted replica recovered via WAL + resync).
	verify := spawn(t, "redplane-udpload -verify", "redplane-udpload",
		append([]string{"-addr", head, "-verify"}, sweep...)...)
	verify.waitOK(30 * time.Second)
	if want := fmt.Sprintf("verify ok: %d/%d flows", flows, flows); !strings.Contains(verify.output(), want) {
		t.Fatalf("verify output lacks %q", want)
	}

	// A switch drives the resynced chain through the daemon's routing.
	// Per flow: a lease, five 4-write batches and a renewal — seven
	// timed round trips, which is what the summary must count.
	sw := spawn(t, "redplane-switch", "redplane-switch",
		"-ctl", ctlAddr, "-flows", "8", "-writes", "20", "-batch", "4")
	sw.waitOK(30 * time.Second)
	if !strings.Contains(sw.output(), "redplane-switch: 56 requests in") {
		t.Fatal("redplane-switch summary does not count its 56 round trips")
	}

	// Chain agreement: all three replicas converge to one digest.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var digests map[string]string
		getJSON(t, httpBase+"/digests", &digests)
		if len(digests) == 3 {
			agree := true
			for _, v := range digests {
				if v != digests["s0"] {
					agree = false
				}
			}
			if agree {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never agreed: %v", digests)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// /metrics is parseable exposition text, records the churn, and
	// carries each member's store counters under its member label.
	metrics := getText(t, httpBase+"/metrics")
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(metrics, "\n"), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "# TYPE ") {
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		samples[fields[0]] = v
	}
	if !strings.Contains(metrics, "# TYPE redplane_ctl_view_changes counter\n") {
		t.Fatal("/metrics lacks the view-change counter's TYPE line")
	}
	if samples["redplane_ctl_view_changes"] < 2 || samples["redplane_ctl_splice_outs"] < 1 ||
		samples["redplane_ctl_rejoins"] < 2 {
		t.Fatalf("churn counters too low: view_changes=%v splice_outs=%v rejoins=%v",
			samples["redplane_ctl_view_changes"], samples["redplane_ctl_splice_outs"],
			samples["redplane_ctl_rejoins"])
	}
	for _, n := range names {
		for _, series := range []string{"redplane_udp_rx_batches",
			"redplane_udp_stale_view_drops", "redplane_udp_shard0_reply_dgrams"} {
			key := fmt.Sprintf("%s{member=%q}", series, n)
			if _, ok := samples[key]; !ok {
				t.Errorf("/metrics lacks %s", key)
			}
		}
	}

	// The daemon saw the crash for what it was.
	if !strings.Contains(daemon.output(), "connection lost") &&
		!strings.Contains(daemon.output(), "marked dead") {
		t.Fatal("daemon never logged the death")
	}
}

// TestStoreKill9KeepsAckedWrites is the durability contract (acked =>
// fsynced) across an unclean crash on the real socket path: a sharded
// store with a WAL acknowledges a sweep, is kill -9ed, and restarts over
// the same WAL directory. Recovery must replay the log, and every flow
// must still hold the sweep's final acknowledged watermark.
func TestStoreKill9KeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t, "udp"))
	wal := filepath.Join(t.TempDir(), "wal")
	startStore := func(label string) *proc {
		p := spawn(t, label, "redplane-store",
			"-listen", addr, "-shards", "2", "-wal-dir", wal)
		p.waitLog(`serving on`, 5*time.Second)
		return p
	}
	sweep := []string{"-addr", addr, "-flows", "32", "-writes", "200"}

	first := startStore("redplane-store")
	spawn(t, "redplane-udpload", "redplane-udpload",
		append(sweep, "-batch", "4", "-window", "16")...).waitOK(time.Minute)
	first.kill9()

	restarted := startStore("redplane-store restart")
	m := restarted.waitLog(`replayed (\d+) WAL records`, 5*time.Second)
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatal("restart replayed no WAL records")
	}
	verify := spawn(t, "redplane-udpload -verify", "redplane-udpload", append(sweep, "-verify")...)
	verify.waitOK(30 * time.Second)
	if !strings.Contains(verify.output(), "verify ok: 32/32 flows") {
		t.Fatal("verify output lacks 32/32 flows")
	}
}
