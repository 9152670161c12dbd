package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/store"
)

// eventScript is a deterministic stream of ingest batches.
type eventScript struct {
	edgeBatches [][]EdgeEvent
	itemBatches []actionlog.Item
	actBatches  [][]actionlog.Action
}

func makeScript(sys *core.System, seed uint64, batches int) *eventScript {
	r := rng.New(seed)
	n := sys.Graph().NumNodes()
	next := maxItemID(sys.ActionLog()) + 1
	s := &eventScript{}
	for b := 0; b < batches; b++ {
		edges := make([]EdgeEvent, 0, 6)
		for i := 0; i < 6; i++ {
			edges = append(edges, EdgeEvent{
				Src: graph.NodeID(r.Intn(n + 4)), // occasionally grows the graph
				Dst: graph.NodeID(r.Intn(n)),
			})
		}
		s.edgeBatches = append(s.edgeBatches, edges)
		s.itemBatches = append(s.itemBatches, actionlog.Item{
			ID: next, Keywords: []string{"durable", "mining"},
		})
		s.actBatches = append(s.actBatches, []actionlog.Action{
			{User: graph.NodeID(r.Intn(n)), Item: next, Time: int64(b)},
			{User: graph.NodeID(r.Intn(n)), Item: next, Time: int64(b) + 1},
		})
		next++
	}
	return s
}

// play ingests batches lo..hi of the script; with edges false it skips
// the edge batches, leaving an items-and-actions-only stream.
func play(t *testing.T, ls *LiveSystem, s *eventScript, lo, hi int, edges bool) {
	t.Helper()
	for b := lo; b < hi; b++ {
		if edges {
			if err := ls.IngestEdges(s.edgeBatches[b]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.IngestActions([]actionlog.Item{s.itemBatches[b]}, s.actBatches[b]); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSameState compares everything recovery promises: graph, model
// probabilities, log dimensions and exact (non-sampled) query answers.
func assertSameState(t *testing.T, want, got *core.System) {
	t.Helper()
	ws, gs := want.Stats(), got.Stats()
	if ws.Nodes != gs.Nodes || ws.Edges != gs.Edges || ws.Episodes != gs.Episodes ||
		ws.Actions != gs.Actions || ws.Vocabulary != gs.Vocabulary {
		t.Fatalf("state dims differ:\n want %+v\n  got %+v", ws, gs)
	}
	want.Graph().EachEdge(func(e graph.EdgeID, u, v graph.NodeID) {
		e2, ok := got.Graph().FindEdge(u, v)
		if !ok {
			t.Fatalf("edge (%d,%d) missing after recovery", u, v)
		}
		for z := 0; z < want.Propagation().NumTopics(); z++ {
			if want.Propagation().TopicProb(e, z) != got.Propagation().TopicProb(e2, z) {
				t.Fatalf("edge (%d,%d) topic %d probability differs", u, v, z)
			}
		}
	})
	for _, q := range [][]string{{"mining", "data"}, {"durable"}, {"learning"}} {
		r1, err := want.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := got.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Seeds) != len(r2.Seeds) {
			t.Fatalf("query %v: %d vs %d seeds", q, len(r1.Seeds), len(r2.Seeds))
		}
		for i := range r1.Seeds {
			if r1.Seeds[i].User != r2.Seeds[i].User ||
				math.Abs(r1.Seeds[i].Spread-r2.Seeds[i].Spread) > 1e-9 {
				t.Fatalf("query %v seed %d differs: %+v vs %+v", q, i, r1.Seeds[i], r2.Seeds[i])
			}
		}
	}
}

// TestCrashRecovery is the durability acceptance test and the identity
// gate of recovery: a WAL-backed live system ingests a scripted stream,
// checkpoints mid-way, keeps ingesting, and is then killed without a
// clean close. Reopening the store and wrapping its checkpoint in a new
// LiveSystem replays the WAL tail through the live apply path and folds
// it; the snapshot that fold checkpoints must be byte-identical to an
// uninterrupted run's at the same version — for an edge-bearing and an
// action-only tail, with and without incremental folds.
func TestCrashRecovery(t *testing.T) {
	const batches, mid = 12, 6
	base, _ := buildBase(t, 250, 41)
	script := makeScript(base, 0xdead, batches)
	for _, tail := range []struct {
		name  string
		edges bool
	}{{"edge-tail", true}, {"action-tail", false}} {
		for _, incremental := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/incremental=%v", tail.name, incremental), func(t *testing.T) {
				cfg := Config{RebuildEvents: 1 << 20, IncrementalFold: incremental}

				// Reference: an uninterrupted, non-durable run folding at the
				// same points (priors are assigned at apply time, so fold
				// points are part of the deterministic state).
				ref, err := NewLiveSystem(base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				play(t, ref, script, 0, mid, true)
				if err := ref.ForceSnapshot(); err != nil {
					t.Fatal(err)
				}
				play(t, ref, script, mid, batches, tail.edges)
				if err := ref.ForceSnapshot(); err != nil {
					t.Fatal(err)
				}

				// Durable run, killed mid-stream.
				dir := t.TempDir()
				d, res, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if res != nil {
					t.Fatalf("fresh dir recovered %+v", res)
				}
				durable := cfg
				durable.Store = d
				live, err := NewLiveSystem(base, durable)
				if err != nil {
					t.Fatal(err)
				}
				play(t, live, script, 0, mid, true)
				if err := live.ForceSnapshot(); err != nil { // fold + checkpoint + WAL rotation
					t.Fatal(err)
				}
				play(t, live, script, mid, batches, tail.edges)
				if err := live.Flush(); err != nil { // applied + durably logged, NOT folded
					t.Fatal(err)
				}
				st := live.Stats()
				if !st.Durable || st.Checkpoints < 2 || st.WALRecords == 0 {
					t.Fatalf("durability stats before crash = %+v", st)
				}
				live.Kill() // crash: no drain, no final fold, no checkpoint
				// A dead process drops its WAL file handle.
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}

				d2, res, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if res == nil || res.SnapshotVersion != st.Version || uint64(res.Tail) != st.WALRecords {
					t.Fatalf("reopen found %+v, want snapshot v%d + %d-record tail", res, st.Version, st.WALRecords)
				}
				durable.Store = d2
				restarted, err := NewLiveSystem(res.Sys, durable)
				if err != nil {
					t.Fatal(err)
				}
				defer restarted.Close()
				rs := restarted.Stats()
				if rs.Version != ref.Version() || rs.LastCheckpointVersion != rs.Version ||
					rs.WALRecords != 0 || rs.Applied != uint64(res.Tail) || rs.Invalid != 0 || rs.Duplicates != 0 {
					t.Fatalf("restarted stats = %+v, want the %d-record tail folded at v%d", rs, res.Tail, ref.Version())
				}
				var want bytes.Buffer
				if err := store.Write(&want, ref.System(), ref.Version()); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(d2.SnapshotPath())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("recovered checkpoint v%d (%d bytes) differs from the uninterrupted run's (%d bytes)",
						rs.Version, len(got), want.Len())
				}
			})
		}
	}
}

// TestGracefulCloseCheckpoints: a clean Close must drain buffered
// events, fold them and leave the directory restart-ready — reopening
// finds no WAL tail and the final state as the checkpoint.
func TestGracefulCloseCheckpoints(t *testing.T) {
	base, _ := buildBase(t, 200, 43)
	script := makeScript(base, 0xbeef, 6)
	dir := t.TempDir()
	d, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveSystem(base, Config{RebuildEvents: 1 << 20, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	play(t, live, script, 0, 6, true)
	if err := live.Close(); err != nil { // graceful: drain + final fold + checkpoint
		t.Fatal(err)
	}
	finalSys := live.System()
	if finalSys.Graph().NumEdges() <= base.Graph().NumEdges() {
		t.Fatal("close did not fold the drained events")
	}

	d2, res, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res == nil {
		t.Fatal("no state recovered after graceful close")
	}
	if res.Tail != 0 || d2.WALRecords() != 0 || res.SnapshotVersion != live.Version() {
		t.Fatalf("graceful close left %+v with %d WAL records, want v%d and no tail",
			res, d2.WALRecords(), live.Version())
	}
	assertSameState(t, finalSys, res.Sys)
}

// TestCloseReturnsFinalFoldError: a graceful Close whose final fold
// fails must say so — the events stay in the WAL for the next start,
// but the caller asked for a checkpoint and did not get one.
func TestCloseReturnsFinalFoldError(t *testing.T) {
	base, _ := buildBase(t, 150, 49)
	d, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fold failure")
	ls, err := NewLiveSystem(base, Config{RebuildEvents: 1 << 20, Store: d, foldHook: func() error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: graph.NodeID(base.Graph().NumNodes())}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the final fold's %v", err, boom)
	}
}

// TestFailedConstructorClosesStore: NewLiveSystem owns its Store from
// the call on, so every error return must close it. Its tail is already
// taken, and no caller could reuse the directory handle.
func TestFailedConstructorClosesStore(t *testing.T) {
	base, _ := buildBase(t, 150, 51)
	dir := t.TempDir()
	d, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveSystem(base, Config{RebuildEvents: 1 << 20, Store: d}) // checkpoints v1
	if err != nil {
		t.Fatal(err)
	}
	if err := live.IngestEdges([]EdgeEvent{{Src: 0, Dst: graph.NodeID(base.Graph().NumNodes())}}); err != nil {
		t.Fatal(err)
	}
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}
	live.Kill() // leaves a 1-event WAL tail
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, res, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Tail != 1 {
		t.Fatalf("reopen found %+v, want a 1-event tail", res)
	}
	boom := errors.New("injected fold failure")
	if _, err := NewLiveSystem(res.Sys, Config{Store: d2, foldHook: func() error { return boom }}); !errors.Is(err, boom) {
		t.Fatalf("NewLiveSystem = %v, want the tail fold's %v", err, boom)
	}
	if err := d2.Sync(); err == nil {
		t.Fatal("store still open after NewLiveSystem failed folding the tail")
	}

	d3, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLiveSystem(nil, Config{Store: d3}); err == nil {
		t.Fatal("NewLiveSystem accepted a nil base")
	}
	if err := d3.Sync(); err == nil {
		t.Fatal("store still open after NewLiveSystem refused a nil base")
	}
}

// TestWALFailureSurfacesOnFlush: when the WAL cannot be written, Flush
// must stop pretending events are durable — the failure is sticky until
// a checkpoint closes the gap.
func TestWALFailureSurfacesOnFlush(t *testing.T) {
	base, _ := buildBase(t, 150, 47)
	d, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLiveSystem(base, Config{RebuildEvents: 1 << 20, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Kill() // the store is already closed; Close would re-close it
	// Sever the WAL out from under the system (simulates a dead disk).
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(base.Graph().NumNodes())
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: n}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err == nil {
		t.Fatal("Flush returned nil with a dead WAL")
	}
	if st := ls.Stats(); st.WALErrors == 0 {
		t.Fatalf("walErrors not counted: %+v", st)
	}
	// The failure is sticky: a later empty flush still reports it.
	if err := ls.Flush(); err == nil {
		t.Fatal("sticky WAL failure not surfaced on second Flush")
	}
}

// TestDurableStatsSurface: the ingest stats must expose the WAL and
// checkpoint counters when (and only when) a store is attached.
func TestDurableStatsSurface(t *testing.T) {
	base, _ := buildBase(t, 150, 45)
	ls, err := NewLiveSystem(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := ls.Stats(); st.Durable || st.Checkpoints != 0 {
		t.Fatalf("non-durable stats = %+v", st)
	}
	ls.Close()

	d, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ls2, err := NewLiveSystem(base, Config{Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	// Target a brand-new node so the edge is always accepted.
	if err := ls2.IngestEdges([]EdgeEvent{{Src: 0, Dst: graph.NodeID(base.Graph().NumNodes())}}); err != nil {
		t.Fatal(err)
	}
	if err := ls2.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ls2.Stats()
	if !st.Durable || st.Checkpoints != 1 || st.LastCheckpointVersion != 1 ||
		st.WALSyncs == 0 || st.WALBytes == 0 {
		t.Fatalf("durable stats = %+v", st)
	}
	// The single accepted edge must be durably logged.
	if st.WALRecords != 1 {
		t.Fatalf("WAL records = %d, want 1", st.WALRecords)
	}
}
