package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/core"
	"octopus/internal/obs"
)

// Layout of a durability directory:
//
//	<dir>/snapshot.oct   latest checkpoint (atomically replaced)
//	<dir>/wal.log        events accepted since that checkpoint
//
// Read replicas mirror snapshot.oct alone: a checkpoint version names
// one file, byte for byte, so the WAL never leaves the leader.

const (
	snapshotFile = "snapshot.oct"
	walFile      = "wal.log"
)

// Dir is an open durability directory: the latest checkpoint snapshot
// plus the WAL of events accepted since. A live ingester appends every
// drained batch, fsyncs once per drain (group commit), and checkpoints
// on snapshot swap. Append/Sync/Checkpoint/TakeTail/Close must be
// called from a single goroutine; the read-only accessors are safe from
// any.
type Dir struct {
	path        string
	wal         *WAL
	tail        []Record // logged after the recovered checkpoint; see TakeTail
	checkpoints atomic.Uint64
	lastVersion atomic.Uint64
	// landed is closed (and dropped) by every checkpoint, waking the
	// replication long-polls parked in CheckpointLanded.
	landedMu sync.Mutex
	landed   chan struct{}

	// testHookAfterSnapshot (tests only) runs between the snapshot write
	// and the WAL rotation — the crash window the checkpoint fence
	// closes. Returning an error aborts the checkpoint exactly where a
	// kill there would.
	testHookAfterSnapshot func() error

	// Observability: checkpoint cost and size, plus the WAL's latency
	// instruments surfaced through accessors.
	checkpointLat  obs.Histogram
	lastCheckpoint atomic.Int64 // snapshot bytes written by the latest checkpoint
}

// Open opens (creating if needed) a durability directory and prepares
// its WAL for appending. If the directory holds previous state, Open
// decodes the checkpoint snapshot and cuts the WAL at the fence naming
// its version; the records logged after that fence — the tail a crash
// left unfolded — stay on the Dir for TakeTail. Open merges nothing:
// stream.NewLiveSystem replays the tail through the live apply path and
// folds it, which checkpoints the next version and rotates the WAL. For
// a fresh directory the RecoverResult is nil.
func Open(dirPath string) (*Dir, *RecoverResult, error) {
	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: open dir: %w", err)
	}
	d := &Dir{path: dirPath}
	var res *RecoverResult
	if _, err := os.Stat(d.SnapshotPath()); err == nil {
		if res, err = d.loadState(); err != nil {
			return nil, nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: open dir: %w", err)
	}
	wal, err := OpenWAL(filepath.Join(dirPath, walFile))
	if err != nil {
		return nil, nil, err
	}
	d.wal = wal
	if res != nil && len(d.tail) == 0 && wal.Records() > 0 {
		// The log holds only records the snapshot already covers (a
		// checkpoint fence whose rotation never ran): drop them so the
		// log once more starts exactly at the snapshot.
		if err := wal.Rotate(); err != nil {
			wal.Close()
			return nil, nil, err
		}
	}
	return d, res, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// SnapshotPath returns the checkpoint snapshot path.
func (d *Dir) SnapshotPath() string { return SnapshotPathIn(d.path) }

// SnapshotPathIn returns the checkpoint snapshot path inside dirPath
// without opening the directory — a read replica keeps its mirrored
// checkpoint under the same name but never opens a Dir.
func SnapshotPathIn(dirPath string) string { return filepath.Join(dirPath, snapshotFile) }

// HasSnapshot reports whether a checkpoint snapshot exists.
func (d *Dir) HasSnapshot() bool {
	_, err := os.Stat(d.SnapshotPath())
	return err == nil
}

// Append buffers records into the WAL; Sync makes them durable.
func (d *Dir) Append(recs []Record) error { return d.wal.Append(recs) }

// Sync fsyncs appended records (one group commit).
func (d *Dir) Sync() error { return d.wal.Sync() }

// Checkpoint persists sys as the new snapshot and rotates the WAL,
// crash-safe at every step:
//
//  1. A fence record naming the new version is appended and fsynced.
//  2. The snapshot is written atomically (temp + rename).
//  3. The WAL is truncated back to its header.
//
// A crash between (2) and (3) used to double-apply the stale tail on
// recovery — edges and items deduplicate against snapshot state, but
// actions carry no identity to deduplicate on. The fence closes that
// window: once the snapshot of step (2) is on disk, recovery cuts the
// log at the fence naming its version and replays nothing before it.
func (d *Dir) Checkpoint(sys *core.System, version uint64) error {
	start := time.Now()
	if err := d.wal.Append([]Record{{Kind: RecFence, Version: version}}); err != nil {
		return err
	}
	if err := d.wal.Sync(); err != nil {
		return err
	}
	if err := saveVersion(d.SnapshotPath(), sys, version); err != nil {
		return err
	}
	if h := d.testHookAfterSnapshot; h != nil {
		if err := h(); err != nil {
			return err
		}
	}
	if err := d.wal.Rotate(); err != nil {
		return err
	}
	d.checkpointLat.ObserveSince(start)
	if st, err := os.Stat(d.SnapshotPath()); err == nil {
		d.lastCheckpoint.Store(st.Size())
	}
	d.checkpoints.Add(1)
	d.lastVersion.Store(version)
	d.landedMu.Lock()
	if d.landed != nil {
		close(d.landed)
		d.landed = nil
	}
	d.landedMu.Unlock()
	return nil
}

// CheckpointLanded returns a channel the next checkpoint closes. Take
// it before reading LastCheckpointVersion, so a checkpoint landing in
// between still wakes the waiter.
func (d *Dir) CheckpointLanded() <-chan struct{} {
	d.landedMu.Lock()
	defer d.landedMu.Unlock()
	if d.landed == nil {
		d.landed = make(chan struct{})
	}
	return d.landed
}

// Checkpoints returns the number of checkpoints taken through this Dir.
func (d *Dir) Checkpoints() uint64 { return d.checkpoints.Load() }

// LastCheckpointVersion returns the snapshot generation of the latest
// checkpoint (0 if none yet).
func (d *Dir) LastCheckpointVersion() uint64 { return d.lastVersion.Load() }

// WALRecords returns the number of records currently in the WAL.
func (d *Dir) WALRecords() uint64 { return d.wal.Records() }

// WALSyncs returns the number of fsync group commits issued.
func (d *Dir) WALSyncs() uint64 { return d.wal.Syncs() }

// WALSize returns the WAL size in bytes.
func (d *Dir) WALSize() int64 { return d.wal.Size() }

// WALBytesLogged returns the bytes appended across all rotations.
func (d *Dir) WALBytesLogged() int64 { return d.wal.TotalBytes() }

// WALAppendLatency returns the WAL append-call latency histogram.
func (d *Dir) WALAppendLatency() *obs.Histogram { return d.wal.AppendLatency() }

// WALSyncLatency returns the WAL fsync latency histogram.
func (d *Dir) WALSyncLatency() *obs.Histogram { return d.wal.SyncLatency() }

// CheckpointLatency returns the checkpoint duration histogram
// (snapshot write + WAL rotation).
func (d *Dir) CheckpointLatency() *obs.Histogram { return &d.checkpointLat }

// LastCheckpointBytes returns the snapshot size written by the latest
// checkpoint (0 if none this session).
func (d *Dir) LastCheckpointBytes() int64 { return d.lastCheckpoint.Load() }

// Close syncs and closes the WAL.
func (d *Dir) Close() error { return d.wal.Close() }

// RecoverResult is what Open found in a directory holding state.
type RecoverResult struct {
	// Sys is the checkpoint snapshot as written.
	Sys *core.System
	// SnapshotVersion is the generation recorded in the snapshot.
	SnapshotVersion uint64
	// Tail counts the WAL records logged after the snapshot's fence,
	// which TakeTail hands to the live ingester to replay.
	Tail int
}

// TakeTail returns the WAL records Open found after the checkpoint's
// fence, once: the caller that replays them owns them, and later calls
// return nil. The records stay in the WAL until the next checkpoint
// rotates it.
func (d *Dir) TakeTail() []Record {
	tail := d.tail
	d.tail = nil
	return tail
}

// loadState decodes the checkpoint snapshot and keeps the WAL records
// logged after it as d.tail. The log is cut at the last checkpoint fence
// naming the snapshot's version: the fence is appended and fsynced
// before the snapshot is written, so everything at or before it is
// already in the snapshot on disk. Without the cut, a crash between
// snapshot write and WAL rotation would replay that tail twice — edges
// and items deduplicate against snapshot state, but actions carry no
// identity to deduplicate on. Fences past the cut belong to checkpoints
// whose snapshot never landed; they carry no state and are dropped.
func (d *Dir) loadState() (*RecoverResult, error) {
	f, err := os.Open(d.SnapshotPath())
	if err != nil {
		return nil, fmt.Errorf("store: recover: %w", err)
	}
	sys, version, err := Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	var recs []*Record
	if _, err := ReplayWAL(filepath.Join(d.path, walFile), func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	cut := -1
	for i, rec := range recs {
		if rec.Kind == RecFence && rec.Version == version {
			cut = i
		}
	}
	for _, rec := range recs[cut+1:] {
		if rec.Kind != RecFence {
			d.tail = append(d.tail, *rec)
		}
	}
	d.lastVersion.Store(version)
	return &RecoverResult{Sys: sys, SnapshotVersion: version, Tail: len(d.tail)}, nil
}
