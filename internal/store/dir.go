package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/tic"
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
// on snapshot swap. Append/Sync/Checkpoint/Close must be called from a
// single goroutine; the read-only accessors are safe from any.
type Dir struct {
	path        string
	wal         *WAL
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
// its WAL for appending. If the directory holds previous state — a
// snapshot and possibly a WAL tail — that state is recovered first and
// returned, and the recovered system is immediately re-checkpointed so
// the WAL starts empty; the caller should serve the returned system.
// For a fresh directory the RecoverResult is nil.
func Open(dirPath string) (*Dir, *RecoverResult, error) {
	if err := os.MkdirAll(dirPath, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: open dir: %w", err)
	}
	var res *RecoverResult
	if _, err := os.Stat(filepath.Join(dirPath, snapshotFile)); err == nil {
		res, err = Recover(dirPath)
		if err != nil {
			return nil, nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: open dir: %w", err)
	}
	wal, err := OpenWAL(filepath.Join(dirPath, walFile))
	if err != nil {
		return nil, nil, err
	}
	d := &Dir{path: dirPath, wal: wal}
	if res != nil {
		d.lastVersion.Store(res.SnapshotVersion)
		if res.Replayed > 0 {
			// Compact: fold the replayed tail into a fresh checkpoint so the
			// next recovery starts from the merged state. The merged state is
			// a new generation, so the version advances — checkpoint versions
			// stay monotone and never name two different states.
			res.SnapshotVersion++
			if err := d.Checkpoint(res.Sys, res.SnapshotVersion); err != nil {
				wal.Close()
				return nil, nil, err
			}
		} else if wal.Records() > 0 {
			// The tail held only records the snapshot already covers (a
			// checkpoint fence whose rotation never ran, or invalid
			// records recovery would skip again): drop it so the log once
			// more starts exactly at the snapshot.
			if err := wal.Rotate(); err != nil {
				wal.Close()
				return nil, nil, err
			}
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

// RecoverResult is the outcome of crash recovery.
type RecoverResult struct {
	// Sys is the recovered system: the latest snapshot with the WAL tail
	// folded in.
	Sys *core.System
	// SnapshotVersion is the generation of the recovered state: the one
	// recorded in the snapshot, advanced by one when Open compacted a
	// replayed WAL tail into a fresh checkpoint.
	SnapshotVersion uint64
	// Replayed counts WAL records folded in on top of the snapshot.
	Replayed int
	// Skipped counts WAL records dropped as duplicates of snapshot state
	// (possible when a crash lands between snapshot write and WAL
	// rotation) or as invalid.
	Skipped int
}

// Recover rebuilds the live state from a durability directory: it loads
// the latest checkpoint snapshot and replays the WAL tail over it —
// exactly what a restarted `serve -ingest` process does. Recover only
// reads; it can safely inspect a directory while (or after) another
// process' crash left it mid-write.
func Recover(dirPath string) (*RecoverResult, error) {
	f, err := os.Open(filepath.Join(dirPath, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("store: recover: no snapshot in %s: %w", dirPath, err)
	}
	parts, err := ReadParts(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	var recs []*Record
	if _, err := ReplayWAL(filepath.Join(dirPath, walFile), func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	// Cut the log at the last checkpoint fence naming the snapshot's
	// version: the fence is appended and fsynced before the snapshot is
	// written, so everything at or before it is already folded into the
	// snapshot on disk. Without the cut, a crash between snapshot write
	// and WAL rotation would double-apply that tail — edges and items
	// deduplicate against snapshot state below, but actions carry no
	// identity to deduplicate on. Fences past the cut belong to
	// checkpoints whose snapshot never landed; they carry no state and
	// are dropped (neither replayed nor skipped).
	cut := -1
	for i, rec := range recs {
		if rec.Kind == RecFence && rec.Version == parts.Version {
			cut = i
		}
	}
	var live []*Record
	for _, rec := range recs[cut+1:] {
		if rec.Kind != RecFence {
			live = append(live, rec)
		}
	}
	recs = live
	res := &RecoverResult{SnapshotVersion: parts.Version}
	if len(recs) == 0 {
		if res.Sys, err = parts.Build(); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Merge the WAL tail the same way a streaming fold would: grow the
	// graph, remap the model with the recorded edge priors, and rebuild
	// the action log from the concatenated items and actions.
	oldG := parts.Graph
	b := graph.NewBuilder(oldG.NumNodes())
	b.AddGraph(oldG)
	type edgeKey struct{ u, v graph.NodeID }
	priors := make(map[edgeKey][]float64)
	itemIDs := make(map[int32]struct{}, len(parts.Log.Episodes))
	for _, ep := range parts.Log.Episodes {
		itemIDs[ep.Item.ID] = struct{}{}
	}
	items := parts.Log.Items()
	acts := parts.Log.Actions()
	maxNode := graph.NodeID(oldG.NumNodes()) - 1
	for _, rec := range recs {
		switch rec.Kind {
		case RecEdge:
			if rec.Src < 0 || rec.Dst < 0 || rec.Src == rec.Dst {
				res.Skipped++
				continue
			}
			if _, dup := priors[edgeKey{rec.Src, rec.Dst}]; dup {
				res.Skipped++
				continue
			}
			if int(rec.Src) < oldG.NumNodes() && int(rec.Dst) < oldG.NumNodes() {
				if _, ok := oldG.FindEdge(rec.Src, rec.Dst); ok {
					res.Skipped++
					continue
				}
			}
			b.AddEdge(rec.Src, rec.Dst)
			priors[edgeKey{rec.Src, rec.Dst}] = rec.Probs
			if rec.SrcName != "" && (int(rec.Src) >= oldG.NumNodes() || oldG.Name(rec.Src) == "") {
				b.SetName(rec.Src, rec.SrcName)
			}
			if rec.DstName != "" && (int(rec.Dst) >= oldG.NumNodes() || oldG.Name(rec.Dst) == "") {
				b.SetName(rec.Dst, rec.DstName)
			}
			if rec.Src > maxNode {
				maxNode = rec.Src
			}
			if rec.Dst > maxNode {
				maxNode = rec.Dst
			}
			res.Replayed++
		case RecItem:
			if _, dup := itemIDs[rec.ItemID]; dup {
				res.Skipped++
				continue
			}
			itemIDs[rec.ItemID] = struct{}{}
			items = append(items, actionlog.Item{ID: rec.ItemID, Keywords: rec.Keywords})
			res.Replayed++
		case RecAction:
			if rec.User < 0 || rec.User > maxNode {
				res.Skipped++
				continue
			}
			if _, ok := itemIDs[rec.Item]; !ok {
				res.Skipped++
				continue
			}
			acts = append(acts, actionlog.Action{User: rec.User, Item: rec.Item, Time: rec.Time})
			res.Replayed++
		default:
			res.Skipped++
		}
	}
	newG := b.Build()
	model, err := tic.Remap(parts.Prop, newG, func(u, v graph.NodeID) []float64 {
		return priors[edgeKey{u, v}]
	})
	if err != nil {
		return nil, fmt.Errorf("store: recover: remap model: %w", err)
	}
	newLog := actionlog.Build(newG.NumNodes(), items, acts)
	cfg := parts.Config
	cfg.GroundTruth = model
	cfg.GroundTruthWords = parts.Words
	cfg.TopicNames = nil
	sys, err := core.Build(newG, newLog, cfg)
	if err != nil {
		return nil, fmt.Errorf("store: recover: rebuild: %w", err)
	}
	res.Sys = sys
	return res, nil
}
