package store_test

import (
	"bytes"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// TestDirCheckpointRecover drives the Dir lifecycle by hand: checkpoint
// a base system, append WAL records (including a duplicate of snapshot
// state), and verify that Open keeps exactly that tail without merging
// it, and that a LiveSystem over the reopened store folds it in.
func TestDirCheckpointRecover(t *testing.T) {
	sys := store.BuildSystem(t, 200, 33)
	n := graph.NodeID(sys.Graph().NumNodes())
	z := sys.Propagation().NumTopics()
	dir := t.TempDir()

	d, res, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("fresh dir recovered %+v", res)
	}
	if err := d.Checkpoint(sys, 1); err != nil {
		t.Fatal(err)
	}
	if d.Checkpoints() != 1 || d.LastCheckpointVersion() != 1 {
		t.Fatalf("checkpoint counters: %d/%d", d.Checkpoints(), d.LastCheckpointVersion())
	}

	// One duplicated base edge, one new edge growing the graph, one item
	// with an action on it.
	var du, dv graph.NodeID
	sys.Graph().EachEdge(func(_ graph.EdgeID, u, v graph.NodeID) { du, dv = u, v })
	prior := make([]float64, z)
	prior[0], prior[z-1] = 0.3, 0.1
	recs := []store.Record{
		{Kind: store.RecEdge, Src: du, Dst: dv, Probs: prior},
		{Kind: store.RecEdge, Src: 0, Dst: n, DstName: "Recovered Node", Probs: prior},
		{Kind: store.RecItem, ItemID: 1 << 20, Keywords: []string{"recovery", "mining"}},
		{Kind: store.RecAction, User: 0, Item: 1 << 20, Time: 9},
	}
	if err := d.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening hands back the checkpoint as written and keeps the whole
	// tail, still in the WAL, for the ingester.
	d2, res2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil || res2.SnapshotVersion != 1 || res2.Tail != len(recs) || d2.WALRecords() != uint64(len(recs)) {
		t.Fatalf("reopen = %+v with %d WAL records, want v1 + a %d-record tail", res2, d2.WALRecords(), len(recs))
	}
	if got := res2.Sys.Graph().NumNodes(); got != int(n) {
		t.Fatalf("Open merged the tail: %d nodes, want the checkpoint's %d", got, n)
	}

	// The live ingester replays the tail and folds it into version 2,
	// which it checkpoints, emptying the WAL.
	ls, err := stream.NewLiveSystem(res2.Sys, stream.Config{Store: d2})
	if err != nil {
		t.Fatal(err)
	}
	st := ls.Stats()
	if st.Version != 2 || st.LastCheckpointVersion != 2 || st.WALRecords != 0 ||
		st.Applied != 3 || st.Duplicates != 1 || st.Invalid != 0 {
		t.Fatalf("recovered live stats = %+v", st)
	}
	got := ls.System()
	g2 := got.Graph()
	if g2.NumNodes() != int(n)+1 || g2.Name(n) != "Recovered Node" {
		t.Fatalf("recovered graph: %d nodes, name(%d)=%q", g2.NumNodes(), n, g2.Name(n))
	}
	e, ok := g2.FindEdge(0, n)
	if !ok {
		t.Fatal("recovered edge (0,n) missing")
	}
	if p := got.Propagation().TopicProb(e, 0); p != float64(float32(0.3)) {
		t.Fatalf("recovered edge prior = %v, want the logged 0.3", p)
	}
	if eps := len(got.ActionLog().Episodes); eps != len(sys.ActionLog().Episodes)+1 {
		t.Fatalf("episodes = %d, want %d", eps, len(sys.ActionLog().Episodes)+1)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open finds no tail, and the folded state as the checkpoint.
	d3, res3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if res3 == nil || res3.Tail != 0 || res3.SnapshotVersion != 2 {
		t.Fatalf("third open = %+v, want v2 and no tail", res3)
	}
	var want, reread bytes.Buffer
	if err := store.Write(&want, got, 2); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&reread, res3.Sys, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), reread.Bytes()) {
		t.Fatal("reopened checkpoint differs from the folded system")
	}
}
