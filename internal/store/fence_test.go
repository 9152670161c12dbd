package store

import (
	"errors"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/core"
)

// TestCheckpointCrashBetweenSnapshotAndRotate kills a checkpoint in
// the window between the snapshot write and the WAL rotation and
// asserts Open does not hand back the tail the snapshot already folded
// in. The tail is made of actions deliberately: edges and items
// deduplicate against snapshot state, but actions carry no identity,
// so only the checkpoint fence keeps them from replaying twice.
func TestCheckpointCrashBetweenSnapshotAndRotate(t *testing.T) {
	sys := buildSystem(t, 150, 7)
	dir := t.TempDir()
	d, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("fresh dir recovered %+v", res)
	}
	if err := d.Checkpoint(sys, 1); err != nil {
		t.Fatal(err)
	}
	items := []actionlog.Item{{ID: 5000, Keywords: []string{"mining"}}}
	acts := []actionlog.Action{{User: 1, Item: 5000, Time: 10}, {User: 2, Item: 5000, Time: 11}}
	recs := []Record{
		{Kind: RecItem, ItemID: items[0].ID, Keywords: items[0].Keywords},
		{Kind: RecAction, User: acts[0].User, Item: acts[0].Item, Time: acts[0].Time},
		{Kind: RecAction, User: acts[1].User, Item: acts[1].Item, Time: acts[1].Time},
	}
	if err := d.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// The state a fold would persist: snapshot 1 plus the logged tail.
	cfg := sys.BuildConfig()
	cfg.TopicNames = nil
	merged, err := core.Fold(sys, actionlog.Merge(sys.ActionLog(), sys.Graph().NumNodes(), items, acts), cfg)
	if err != nil {
		t.Fatal(err)
	}

	killed := errors.New("killed between snapshot write and WAL rotation")
	d.testHookAfterSnapshot = func() error { return killed }
	if err := d.Checkpoint(merged, 2); !errors.Is(err, killed) {
		t.Fatalf("checkpoint error = %v, want the injected kill", err)
	}
	// Crash state on disk: snapshot version 2 (which folded the tail
	// in), WAL still holding the tail plus the version-2 fence.
	if d.WALRecords() != uint64(len(recs))+1 {
		t.Fatalf("crashed WAL holds %d records, want the tail plus the fence", d.WALRecords())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted process: the log is cut at the version-2 fence, so
	// there is no tail, and the stale records are dropped so the log
	// starts at the snapshot.
	d2, res2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil || res2.Tail != 0 || res2.SnapshotVersion != 2 || d2.TakeTail() != nil {
		t.Fatalf("reopen = %+v, want no tail at version 2", res2)
	}
	if d2.LastCheckpointVersion() != 2 || d2.WALRecords() != 0 {
		t.Fatalf("reopened dir: version %d, %d WAL records", d2.LastCheckpointVersion(), d2.WALRecords())
	}
	assertSystemsEquivalent(t, merged, res2.Sys)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBeforeSnapshotKeepsTail is the sibling window: the fence is
// durable but the snapshot write never happened. The fence names a
// version the snapshot does not, so Open must still keep the records
// before it as the tail.
func TestCrashBeforeSnapshotKeepsTail(t *testing.T) {
	sys := buildSystem(t, 150, 7)
	dir := t.TempDir()
	d, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(sys, 1); err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: RecItem, ItemID: 6000, Keywords: []string{"graphs"}},
		{Kind: RecAction, User: 3, Item: 6000, Time: 20},
	}
	if err := d.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// A fence whose checkpoint died before the snapshot write.
	if err := d.Append([]Record{{Kind: RecFence, Version: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res == nil || res.SnapshotVersion != 1 || res.Tail != len(recs) {
		t.Fatalf("Open dropped live records: %+v", res)
	}
	tail := d2.TakeTail()
	if len(tail) != len(recs) || tail[0].Kind != RecItem || tail[0].ItemID != 6000 ||
		tail[1].Kind != RecAction || tail[1].User != 3 || tail[1].Time != 20 {
		t.Fatalf("tail = %+v, want the item and action before the dead fence", tail)
	}
	if d2.TakeTail() != nil {
		t.Fatal("TakeTail handed the tail out twice")
	}
	// The tail stays in the WAL until a checkpoint folds it.
	if d2.WALRecords() != uint64(len(recs))+1 {
		t.Fatalf("WAL holds %d records, want the tail and its fence kept", d2.WALRecords())
	}
}
