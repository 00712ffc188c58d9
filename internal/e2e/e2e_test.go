package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
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

// TestCtlKillRestartUnderLoad is the multi-process scenario: a
// redplane-ctl daemon links three durable redplane-store processes
// into a chain, a windowed load sweep runs against the head, the tail
// is kill -9ed mid-load and later restarted. The daemon must detect
// the crash, splice the chain under a new view, resync and relink the
// returning replica, and the sweep must finish with zero lost
// acknowledged writes and all replicas in digest agreement.
func TestCtlKillRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	ctlPort, httpPort := freePort(t), freePort(t)
	httpBase := fmt.Sprintf("http://127.0.0.1:%d", httpPort)
	ctlAddr := fmt.Sprintf("127.0.0.1:%d", ctlPort)

	daemon := spawn(t, "redplane-ctl", "redplane-ctl",
		"-listen", ctlAddr, "-http", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-chains", "s0,s1,s2", "-probe-interval", "50ms")
	daemon.waitLog(`serving on`, 5*time.Second)

	names := []string{"s0", "s1", "s2"}
	ports := map[string]int{}
	wals := map[string]string{}
	procs := map[string]*proc{}
	startStore := func(n string) *proc {
		p := spawn(t, n, "redplane-store",
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[n]),
			"-shards", "2", "-lease", "10s",
			"-wal-dir", wals[n],
			"-ctl", ctlAddr, "-name", n)
		p.waitLog(`serving on`, 5*time.Second)
		procs[n] = p
		return p
	}
	// Sequential starts keep the bootstrap view in configured order, so
	// s0 is the head the sweep targets.
	for i, n := range names {
		ports[n] = freePort(t)
		wals[n] = filepath.Join(t.TempDir(), n)
		startStore(n)
		waitView(t, httpBase, 10*time.Second, names[:i+1]...)
	}

	head := fmt.Sprintf("127.0.0.1:%d", ports["s0"])
	// The deployment handshake sees the daemon's announcements.
	hi, err := store.VerifyDeployTarget(head, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.ChainPos != 0 || !hi.HasNext || hi.View == 0 {
		t.Fatalf("head hello = %+v", hi)
	}
	// And rejects the tail as a traffic target.
	if _, err := store.HelloUDP(fmt.Sprintf("127.0.0.1:%d", ports["s2"]), 0); err != nil {
		t.Fatal(err)
	}

	cfg := store.SweepConfig{
		Addr: head, Flows: 16, Writes: 30000, Batch: 16,
		Stall: 50 * time.Millisecond, Timeout: 180 * time.Second, ShardCount: 2,
	}
	type sweepOut struct {
		res store.SweepResult
		err error
	}
	sweepCh := make(chan sweepOut, 1)
	sweepStart := time.Now()
	go func() {
		res, err := store.RunSweep(cfg)
		sweepCh <- sweepOut{res, err}
	}()

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
	p := startStore("s2")
	p.waitLog(`durable in .*replayed \d+ WAL records`, 5*time.Second)
	st = waitView(t, httpBase, 20*time.Second, "s0", "s1", "s2")
	if st.Epoch == 0 {
		t.Fatal("routing epoch never advanced")
	}

	out := <-sweepCh
	if out.err != nil {
		t.Fatalf("sweep: %v", out.err)
	}
	if !out.res.Complete {
		t.Fatalf("sweep incomplete: %+v", out.res)
	}
	if want := uint64(cfg.Flows) * uint64(cfg.Writes); out.res.AckedWrites != want {
		t.Fatalf("acked %d writes, want %d", out.res.AckedWrites, want)
	}
	if out.res.Elapsed <= killAt {
		t.Fatalf("sweep finished in %v, before the kill at %v — not a mid-load crash",
			out.res.Elapsed, killAt)
	}

	// No lost acked writes: every flow still reports its final
	// watermark (the restarted replica recovered via WAL + resync).
	okFlows, err := store.VerifySweep(cfg)
	if err != nil || okFlows != cfg.Flows {
		t.Fatalf("verify: %d/%d flows held their watermark (%v)", okFlows, cfg.Flows, err)
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

	// /metrics is parseable exposition text and records the churn.
	metrics := getText(t, httpBase+"/metrics")
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(metrics, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if len(strings.Fields(line)) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
		samples[fields[0]] = fields[1]
	}
	var churn struct{ viewChanges, spliceOuts, rejoins int }
	fmt.Sscan(samples["redplane_ctl_view_changes"], &churn.viewChanges)
	fmt.Sscan(samples["redplane_ctl_splice_outs"], &churn.spliceOuts)
	fmt.Sscan(samples["redplane_ctl_rejoins"], &churn.rejoins)
	if churn.viewChanges < 2 || churn.spliceOuts < 1 || churn.rejoins < 1 {
		t.Fatalf("churn counters too low: %+v\n%s", churn, metrics)
	}
	if !strings.Contains(metrics, `member="s2"`) {
		t.Fatalf("member-labeled store metrics missing:\n%s", metrics)
	}

	// The daemon saw the crash for what it was.
	if !strings.Contains(daemon.output(), "connection lost") &&
		!strings.Contains(daemon.output(), "marked dead") {
		t.Fatalf("daemon never logged the death:\n%s", daemon.output())
	}
}
