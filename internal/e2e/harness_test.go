// Package e2e is the one place the real binaries — redplane-ctl,
// redplane-store, redplane-udpload, redplane-switch — run as separate
// processes. Its scenarios kill -9 store processes mid-run, the way an
// operator would hit a crash, and drive the load through the operator
// binaries so their flags, routing resolution, hello handshake and exit
// codes stay on the tested path. `go test -short` skips them.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binDir holds the binaries TestMain builds once for the package.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "redplane-e2e-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir,
		"redplane/cmd/redplane-ctl", "redplane/cmd/redplane-store",
		"redplane/cmd/redplane-udpload", "redplane/cmd/redplane-switch")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: build: %v\n", err)
		os.Exit(1)
	}
	binDir = dir
	os.Exit(m.Run())
}

// freePort reserves an ephemeral port on network ("tcp" for the
// daemon's control and HTTP listeners, "udp" for stores) and releases
// it for the process under test to bind. The usual (small) bind race is
// acceptable for a test harness.
func freePort(t *testing.T, network string) int {
	t.Helper()
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		return pc.LocalAddr().(*net.UDPAddr).Port
	}
	ln, err := net.Listen(network, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// proc is one spawned binary with captured combined output.
type proc struct {
	t    *testing.T
	name string
	cmd  *exec.Cmd

	mu  sync.Mutex
	out bytes.Buffer

	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// spawn starts binary bin with args, capturing its combined output.
// Cleanup kills it if still running and, when the test has failed,
// logs everything it printed.
func spawn(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(binDir, bin), args...)
	p.cmd.Stdout = syncWriter{p}
	p.cmd.Stderr = syncWriter{p}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: start: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.kill9()
		if t.Failed() {
			t.Logf("%s output:\n%s", p.name, p.output())
		}
	})
	return p
}

type syncWriter struct{ p *proc }

func (w syncWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	return w.p.out.Write(b)
}

// output returns everything the process has printed so far.
func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// waitLog blocks until the process output matches re and returns the
// match's submatches.
func (p *proc) waitLog(re string, timeout time.Duration) []string {
	p.t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(timeout)
	for {
		if m := rx.FindStringSubmatch(p.output()); m != nil {
			return m
		}
		select {
		case <-p.done:
			// Give the output buffer a final read before judging.
			if m := rx.FindStringSubmatch(p.output()); m != nil {
				return m
			}
			p.t.Fatalf("%s exited before logging %q", p.name, re)
		default:
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("%s never logged %q", p.name, re)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitOK blocks until the process exits and fails the test unless it
// exited 0.
func (p *proc) waitOK(timeout time.Duration) {
	p.t.Helper()
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.t.Fatalf("%s still running after %v", p.name, timeout)
	}
	if p.err != nil {
		p.t.Fatalf("%s: %v", p.name, p.err)
	}
}

// kill9 sends SIGKILL — the crash the control plane must detect — and
// waits for the process to be reaped.
func (p *proc) kill9() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.t.Errorf("%s did not die on SIGKILL", p.name)
	}
}
