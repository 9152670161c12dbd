package store

import (
	"errors"
	"testing"
)

// TestCheckpointCrashBetweenSnapshotAndRotate kills a checkpoint in
// the window between the snapshot write and the WAL rotation and
// asserts recovery does not double-apply the tail the snapshot already
// folded in. The tail is made of actions deliberately: edges and items
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
	recs := []Record{
		{Kind: RecItem, ItemID: 5000, Keywords: []string{"mining"}},
		{Kind: RecAction, User: 1, Item: 5000, Time: 10},
		{Kind: RecAction, User: 2, Item: 5000, Time: 11},
	}
	if err := d.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// The state a fold would persist: snapshot 1 plus the logged tail.
	merged, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Replayed != 3 {
		t.Fatalf("merged tail replayed %d records, want 3", merged.Replayed)
	}

	killed := errors.New("killed between snapshot write and WAL rotation")
	d.testHookAfterSnapshot = func() error { return killed }
	if err := d.Checkpoint(merged.Sys, 2); !errors.Is(err, killed) {
		t.Fatalf("checkpoint error = %v, want the injected kill", err)
	}
	// Crash state on disk: snapshot version 2 (which folded the tail
	// in), WAL still holding the tail plus the version-2 fence.
	res, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotVersion != 2 {
		t.Fatalf("recovered snapshot version = %d, want 2", res.SnapshotVersion)
	}
	if res.Replayed != 0 || res.Skipped != 0 {
		t.Fatalf("stale tail replayed over the snapshot that folded it: %+v", res)
	}
	assertSystemsEquivalent(t, merged.Sys, res.Sys)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The restarted process: nothing to compact (the version stays 2),
	// and the stale tail is dropped so the log starts at the snapshot.
	d2, res2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil || res2.Replayed != 0 || res2.SnapshotVersion != 2 {
		t.Fatalf("reopen recovery = %+v, want replayed 0 at version 2", res2)
	}
	if d2.LastCheckpointVersion() != 2 || d2.WALRecords() != 0 {
		t.Fatalf("reopened dir: version %d, %d WAL records", d2.LastCheckpointVersion(), d2.WALRecords())
	}
	assertSystemsEquivalent(t, merged.Sys, res2.Sys)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBeforeSnapshotKeepsTail is the sibling window: the fence is
// durable but the snapshot write never happened. The fence names a
// version the snapshot does not, so recovery must still replay the
// records before it.
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
	res, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotVersion != 1 || res.Replayed != 2 {
		t.Fatalf("recovery dropped live records: %+v", res)
	}
	if got := len(res.Sys.ActionLog().Episodes); got != len(sys.ActionLog().Episodes)+1 {
		t.Fatalf("episodes = %d, want %d", got, len(sys.ActionLog().Episodes)+1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
