package store

import (
	"time"

	"redplane/internal/durable"
	"redplane/internal/obs"
)

// DefaultFsyncDelay models a group-commit fsync on a datacenter NVMe
// device when DurabilityConfig.FsyncDelay is zero.
const DefaultFsyncDelay = 20 * time.Microsecond

// DefaultCheckpointBytes is the WAL growth between checkpoints when
// DurabilityConfig.CheckpointBytes is zero.
const DefaultCheckpointBytes = 256 << 10

// DurabilityConfig parameterizes a server's persistence layer.
type DurabilityConfig struct {
	// Enabled turns the WAL + checkpoint pipeline on. Off (the default),
	// the store is the original in-memory simulation prop and cold
	// restarts lose everything.
	Enabled bool

	// FsyncDelay is the simulator's virtual device latency: mutations
	// logged within it share one fsync, and their outputs (chain
	// forwards, switch acks) are held until that fsync completes in
	// virtual time. Simulator-only — the real-UDP server syncs
	// synchronously and ignores it (its commit groups are self-clocked
	// by the device). Zero means DefaultFsyncDelay.
	FsyncDelay time.Duration

	// SegmentBytes is the WAL segment roll threshold (zero =
	// durable.DefaultSegmentBytes).
	SegmentBytes int

	// CheckpointBytes is how much WAL must accumulate since the last
	// checkpoint before the next one is taken (zero =
	// DefaultCheckpointBytes). Checkpoints reclaim WAL segments.
	CheckpointBytes int
}

// Durability binds one shard replica to a durable.Backend: it logs every
// Update the shard applies, group-commits the log, takes periodic
// checkpoints, and rebuilds a shard after a cold restart. It is
// single-threaded like the Shard it guards.
type Durability struct {
	be  durable.Backend
	wal *durable.WAL
	cfg DurabilityConfig

	shard *Shard

	syncedSinceCkpt int
	lastCkptAt      int64

	encBuf []byte

	walBytes     *obs.Counter
	walRecords   *obs.Counter
	fsyncs       *obs.Counter
	checkpoints  *obs.Counter
	coldRestores *obs.Counter
	ckptAge      *obs.Gauge
}

// NewDurability opens (or recovers) the write-ahead log on be. Observability
// counters land under ns; pass a scope from a throwaway registry when
// running standalone.
func NewDurability(be durable.Backend, cfg DurabilityConfig, ns *obs.Scope) (*Durability, error) {
	if cfg.FsyncDelay == 0 {
		cfg.FsyncDelay = DefaultFsyncDelay
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	wal, err := durable.OpenWAL(be, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	d := &Durability{
		be: be, wal: wal, cfg: cfg,
		walBytes:     ns.Counter("wal_bytes"),
		walRecords:   ns.Counter("wal_records"),
		fsyncs:       ns.Counter("fsyncs"),
		checkpoints:  ns.Counter("checkpoints"),
		coldRestores: ns.Counter("cold_restores"),
		ckptAge:      ns.Gauge("checkpoint_age_ns"),
	}
	return d, nil
}

// Attach installs the WAL hook on sh: every Update it applies from here
// on is logged. Call only after any restore/replay has finished.
func (d *Durability) Attach(sh *Shard) {
	d.shard = sh
	sh.SetWALHook(d.append)
}

func (d *Durability) append(up Update) {
	d.encBuf = EncodeUpdate(d.encBuf[:0], up)
	d.wal.Append(d.encBuf)
	d.walRecords.Inc()
}

// WALBytes returns the durable bytes written over the WAL's lifetime.
func (d *Durability) WALBytes() uint64 { return d.wal.Bytes() }

// StagedRecords reports appends not yet covered by a Sync.
func (d *Durability) StagedRecords() int { return d.wal.StagedRecords() }

// DiscardStaged models a crash that loses the process's memory before
// the covering fsync: staged records were never durable.
func (d *Durability) DiscardStaged() { d.wal.DiscardStaged() }

// Sync group-commits every staged record and, when enough WAL has
// accumulated, takes a checkpoint. now is the caller's clock (virtual or
// wall) in ns, used for checkpoint-age accounting.
func (d *Durability) Sync(now int64) error {
	before := d.wal.Bytes()
	if err := d.wal.Sync(); err != nil {
		return err
	}
	synced := int(d.wal.Bytes() - before)
	if synced > 0 {
		d.fsyncs.Inc()
		d.walBytes.Add(uint64(synced))
		d.syncedSinceCkpt += synced
	}
	d.ckptAge.Set(now - d.lastCkptAt)
	if d.syncedSinceCkpt >= d.cfg.CheckpointBytes {
		return d.ForceCheckpoint(now)
	}
	return nil
}

// ForceCheckpoint durably writes a checkpoint of the attached shard at
// the WAL's current position and reclaims covered segments. Mandatory
// after Shard.CloneFrom: a clone bypasses the WAL hook, so until the
// next checkpoint the log no longer reconstructs the shard.
func (d *Durability) ForceCheckpoint(now int64) error {
	seq := d.wal.NextSeq() - 1
	if err := durable.WriteCheckpoint(d.be, seq, d.shard.EncodeCheckpoint()); err != nil {
		return err
	}
	if err := d.wal.TruncateThrough(seq); err != nil {
		return err
	}
	d.checkpoints.Inc()
	d.syncedSinceCkpt = 0
	d.lastCkptAt = now
	d.ckptAge.Set(0)
	return nil
}

// Restore rebuilds a shard solely from durable state: the newest valid
// checkpoint plus the WAL tail past it, applied in log order. It
// attaches the new shard (installing the WAL hook after replay) and
// returns it along with the number of WAL records replayed.
func (d *Durability) Restore(cfg Config) (*Shard, int, error) {
	sh := NewShard(cfg)
	ckptSeq, payload, ok, err := durable.LatestCheckpoint(d.be)
	if err != nil {
		return nil, 0, err
	}
	from := uint64(1)
	var checkpoint []byte
	if ok {
		checkpoint = payload
		from = ckptSeq + 1
	}
	var tail []Update
	err = d.wal.Replay(from, func(_ uint64, p []byte) error {
		up, err := DecodeUpdate(p)
		if err != nil {
			return err
		}
		tail = append(tail, up)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if err := sh.RestoreFrom(checkpoint, tail); err != nil {
		return nil, 0, err
	}
	d.Attach(sh)
	d.coldRestores.Inc()
	return sh, len(tail), nil
}
