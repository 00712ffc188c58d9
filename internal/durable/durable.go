// Package durable is the state store's persistence layer: a segmented,
// CRC-framed write-ahead log plus point-in-time checkpoints, written
// through a pluggable Backend so the same code serves two deployments.
// The simulator gives every store server a MemBackend — "disk" that
// survives a cold restart (the process loses its heap, the backend does
// not) with fsync latency modeled in virtual time by the transport — and
// cmd/redplane-store uses a DirBackend over real files, where kill -9
// and restart recovers the shard from the wal directory.
//
// Durability contract: a record is durable once the Sync that covers its
// Append returns. Appends before the first covering Sync are staged in
// process memory and are lost on a crash, which is exactly the group-
// commit window the transport models: acknowledgments are held until the
// covering sync completes, so nothing observable ever depends on an
// unsynced record.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Backend is the minimal file-store durability needs: whole-file reads,
// truncating creates with append-only writes, listing, and removal.
// Implementations must be safe for use by one writer; MemBackend is
// additionally safe for concurrent readers (the chaos dumper).
type Backend interface {
	// Create opens name for writing, truncating any previous content.
	Create(name string) (File, error)
	// ReadFile returns name's full content.
	ReadFile(name string) ([]byte, error)
	// List returns every file name, sorted.
	List() ([]string, error)
	// Remove deletes name (no error if absent).
	Remove(name string) error
}

// File is an append-only output stream with an explicit durability
// barrier.
type File interface {
	// Write appends b.
	Write(b []byte) (int, error)
	// Sync makes everything written so far durable.
	Sync() error
	// Close releases the file (without an implicit Sync).
	Close() error
}

// MemBackend is an in-memory Backend: the simulator's "disk". Content
// written and synced here survives a simulated cold restart because the
// backend object outlives the server's shard memory.
type MemBackend struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string][]byte)}
}

type memFile struct {
	be   *MemBackend
	name string
}

func (f *memFile) Write(b []byte) (int, error) {
	f.be.mu.Lock()
	defer f.be.mu.Unlock()
	f.be.files[f.name] = append(f.be.files[f.name], b...)
	return len(b), nil
}

func (f *memFile) Sync() error  { return nil } // memory is always "durable"
func (f *memFile) Close() error { return nil }

// Create implements Backend.
func (m *MemBackend) Create(name string) (File, error) {
	m.mu.Lock()
	m.files[name] = nil
	m.mu.Unlock()
	return &memFile{be: m, name: name}, nil
}

// ReadFile implements Backend.
func (m *MemBackend) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("durable: no file %q", name)
	}
	return append([]byte(nil), b...), nil
}

// List implements Backend.
func (m *MemBackend) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Backend.
func (m *MemBackend) Remove(name string) error {
	m.mu.Lock()
	delete(m.files, name)
	m.mu.Unlock()
	return nil
}

// Files snapshots every file's content — the chaos harness dumps a
// failed campaign's durable state through this.
func (m *MemBackend) Files() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for n, b := range m.files {
		out[n] = append([]byte(nil), b...)
	}
	return out
}

// DirBackend stores files under a real directory — the deployment
// backend behind redplane-store -wal-dir.
type DirBackend struct{ dir string }

// NewDirBackend creates dir if needed and returns a backend over it.
func NewDirBackend(dir string) (*DirBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &DirBackend{dir: dir}, nil
}

func (d *DirBackend) path(name string) string {
	// Flatten: backends use flat names; reject anything path-like.
	return filepath.Join(d.dir, filepath.Base(name))
}

// Create implements Backend.
func (d *DirBackend) Create(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFile implements Backend.
func (d *DirBackend) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

// List implements Backend.
func (d *DirBackend) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Backend.
func (d *DirBackend) Remove(name string) error {
	err := os.Remove(d.path(name))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
