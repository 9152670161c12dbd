package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/rng"
)

func buildBase(t *testing.T, authors int, seed uint64) (*core.System, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: authors, Topics: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             seed ^ 0xabc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, ds
}

// maxItemID returns an id above every item in the log, so streamed items
// never collide with base items.
func maxItemID(l *actionlog.Log) int32 {
	var mx int32
	for _, ep := range l.Episodes {
		if ep.Item.ID > mx {
			mx = ep.Item.ID
		}
	}
	return mx
}

func TestFoldAppliesEvents(t *testing.T) {
	sys, _ := buildBase(t, 200, 7)
	n := graph.NodeID(sys.Graph().NumNodes())
	baseEdges := sys.Graph().NumEdges()
	baseEpisodes := len(sys.ActionLog().Episodes)

	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// A new edge between existing nodes, and one introducing a new node.
	if err := ls.IngestEdges([]EdgeEvent{
		{Src: 0, Dst: n - 1},
		{Src: 1, Dst: n, DstName: "Newcomer Node"},
	}); err != nil {
		t.Fatal(err)
	}
	// A new item plus actions on it.
	itemID := maxItemID(sys.ActionLog()) + 1
	if err := ls.IngestActions(
		[]actionlog.Item{{ID: itemID, Keywords: []string{"brandnewword", "mining"}}},
		[]actionlog.Action{{User: 0, Item: itemID, Time: 1}, {User: 1, Item: itemID, Time: 2}},
	); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}

	// Before the fold: the old snapshot still serves, the events pend.
	if v := ls.Version(); v != 1 {
		t.Fatalf("version before fold = %d", v)
	}
	if got := ls.System().Graph().NumEdges(); got != baseEdges {
		t.Fatalf("edges changed before fold: %d != %d", got, baseEdges)
	}
	st := ls.Stats()
	if st.Applied != 5 || st.Pending != 5 {
		t.Fatalf("stats before fold = %+v", st)
	}

	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	sys2 := ls.System()
	if ls.Version() != 2 {
		t.Fatalf("version after fold = %d", ls.Version())
	}
	if got := sys2.Graph().NumNodes(); got != int(n)+1 {
		t.Fatalf("nodes after fold = %d, want %d", got, n+1)
	}
	if got := sys2.Graph().NumEdges(); got != baseEdges+2 {
		t.Fatalf("edges after fold = %d, want %d", got, baseEdges+2)
	}
	if sys2.Graph().Name(n) != "Newcomer Node" {
		t.Fatalf("new node name = %q", sys2.Graph().Name(n))
	}
	e, ok := sys2.Graph().FindEdge(0, n-1)
	if !ok {
		t.Fatal("folded edge (0,n-1) missing")
	}
	if p := sys2.Propagation().MaxProb(e); p <= 0 {
		t.Fatalf("folded edge has zero prior probability")
	}
	// The folded edge carries the prior assigned at apply time, bit for
	// bit at the model's float32 precision.
	prior := weightedJaccardPrior(sys, 0, n-1)
	got := make([]float64, len(prior))
	sys2.Propagation().EdgeTopics(e, func(z int, p float64) { got[z] = p })
	for z, p := range prior {
		if want := float64(float32(p)); got[z] != want {
			t.Fatalf("folded edge topic %d = %v, want prior %v", z, got[z], want)
		}
	}
	// Pre-existing edges must carry their probabilities over exactly.
	sys.Graph().EachEdge(func(oldE graph.EdgeID, u, v graph.NodeID) {
		ne, ok := sys2.Graph().FindEdge(u, v)
		if !ok {
			t.Fatalf("old edge (%d,%d) lost in fold", u, v)
		}
		if sys2.Propagation().MaxProb(ne) != sys.Propagation().MaxProb(oldE) {
			t.Fatalf("edge (%d,%d) probability changed in fold", u, v)
		}
	})
	if got := len(sys2.ActionLog().Episodes); got != baseEpisodes+1 {
		t.Fatalf("episodes after fold = %d, want %d", got, baseEpisodes+1)
	}
	// The new item's keywords join user 0's pool.
	found := false
	for _, w := range sys2.UserKeywords(0) {
		if w == "brandnewword" {
			found = true
		}
	}
	if !found {
		t.Fatalf("new item keyword missing from user pool: %v", sys2.UserKeywords(0))
	}
	// Old snapshot still fully intact (copy-on-write).
	if sys.Graph().NumEdges() != baseEdges {
		t.Fatal("base snapshot mutated by fold")
	}
	st = ls.Stats()
	if st.Pending != 0 || st.Snapshots != 1 || st.Version != 2 {
		t.Fatalf("stats after fold = %+v", st)
	}
}

// TestStatsJSONLastSwapAt: /api/ingest/stats has no lastSwapAt before
// the first swap, and has one after it.
func TestStatsJSONLastSwapAt(t *testing.T) {
	sys, _ := buildBase(t, 120, 9)
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	keys := func() map[string]any {
		b, err := json.Marshal(ls.Stats())
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]any{}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if v, ok := keys()["lastSwapAt"]; ok {
		t.Fatalf("fresh stats carry lastSwapAt %v", v)
	}
	item := maxItemID(sys.ActionLog()) + 1
	if err := ls.IngestActions([]actionlog.Item{{ID: item, Keywords: []string{"w"}}},
		[]actionlog.Action{{User: 0, Item: item, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys()["lastSwapAt"]; !ok {
		t.Fatal("stats after a swap lack lastSwapAt")
	}
}

func TestInvalidAndDuplicateEvents(t *testing.T) {
	sys, _ := buildBase(t, 150, 9)
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Find one existing edge to duplicate.
	var du, dv graph.NodeID
	sys.Graph().EachEdge(func(_ graph.EdgeID, u, v graph.NodeID) { du, dv = u, v })

	if err := ls.IngestEdges([]EdgeEvent{
		{Src: 3, Dst: 3},       // self loop: invalid
		{Src: -1, Dst: 2},      // negative: invalid
		{Src: 1, Dst: 1 << 30}, // beyond MaxNodes: invalid
		{Src: du, Dst: dv},     // already in base: duplicate
		{Src: 2, Dst: 5},       // fresh (assuming absent — checked below)
		{Src: 2, Dst: 5},       // re-sent: duplicate
	}); err != nil {
		t.Fatal(err)
	}
	// Action on unknown item and unknown user: invalid.
	if err := ls.IngestActions(nil, []actionlog.Action{
		{User: 0, Item: 1 << 30, Time: 1},
		{User: 1 << 29, Item: 0, Time: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ls.Stats()
	_, existed := sys.Graph().FindEdge(2, 5)
	wantApplied, wantDup := uint64(1), uint64(2)
	if existed {
		wantApplied, wantDup = 0, 3
	}
	if st.Applied != wantApplied || st.Duplicates != wantDup || st.Invalid != 5 {
		t.Fatalf("stats = %+v (edge(2,5) existed=%v)", st, existed)
	}
}

func TestTryIngestBackpressure(t *testing.T) {
	// A LiveSystem shell whose apply loop never runs: the buffer cannot
	// drain, so the second batch must be rejected.
	ls := &LiveSystem{ch: make(chan request, 1), closed: make(chan struct{})}
	if err := ls.TryIngestEdges([]EdgeEvent{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.TryIngestEdges([]EdgeEvent{{Src: 0, Dst: 2}}); err != ErrBufferFull {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
	st := Stats{Accepted: ls.accepted.Load(), Dropped: ls.dropped.Load()}
	if st.Accepted != 1 || st.Dropped != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestClosedIngest(t *testing.T) {
	sys, _ := buildBase(t, 120, 11)
	ls, err := NewLiveSystem(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: 1}}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := ls.ForceSnapshot(); err != ErrClosed {
		t.Fatalf("marker err = %v, want ErrClosed", err)
	}
	// Close is idempotent and the snapshot still serves.
	_ = ls.Close()
	if ls.System() == nil {
		t.Fatal("snapshot gone after close")
	}
}

// TestConcurrentIngestQuerySwap is the -race acceptance test: query
// workers hammer the analysis services while a writer streams events and
// snapshots swap underneath them. Queries must never fail, and observed
// snapshot versions must be monotonically non-decreasing per reader.
func TestConcurrentIngestQuerySwap(t *testing.T) {
	sys, _ := buildBase(t, 250, 13)
	n := sys.Graph().NumNodes()
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 150, BufferBatches: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	const readers = 4
	stop := make(chan struct{})
	var qCount atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lastVer := uint64(0)
			queries := [][]string{{"mining", "data"}, {"learning"}, {"systems", "query"}}
			for qi := 0; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := ls.Snapshot()
				if snap.Version < lastVer {
					t.Errorf("reader %d: version went backwards %d -> %d", id, lastVer, snap.Version)
					return
				}
				lastVer = snap.Version
				if _, err := snap.Sys.DiscoverInfluencers(queries[qi%len(queries)],
					core.DiscoverOptions{K: 3}); err != nil {
					t.Errorf("reader %d: discover: %v", id, err)
					return
				}
				root := graph.NodeID(qi % snap.Sys.Graph().NumNodes())
				if _, err := snap.Sys.InfluencePaths(root, core.PathOptions{MaxNodes: 30}); err != nil {
					t.Errorf("reader %d: paths: %v", id, err)
					return
				}
				_ = ls.Stats()
				qCount.Add(1)
			}
		}(i)
	}

	// Writer: stream random edges plus item/action episodes.
	r := rng.New(99)
	nextItem := maxItemID(sys.ActionLog()) + 1
	for batch := 0; batch < 40; batch++ {
		edges := make([]EdgeEvent, 0, 12)
		for i := 0; i < 12; i++ {
			edges = append(edges, EdgeEvent{
				Src: graph.NodeID(r.Intn(n)),
				Dst: graph.NodeID(r.Intn(n)),
			})
		}
		if err := ls.IngestEdges(edges); err != nil {
			t.Fatal(err)
		}
		items := []actionlog.Item{{ID: nextItem, Keywords: []string{"stream", "mining"}}}
		acts := []actionlog.Action{
			{User: graph.NodeID(r.Intn(n)), Item: nextItem, Time: int64(batch)},
			{User: graph.NodeID(r.Intn(n)), Item: nextItem, Time: int64(batch) + 1},
		}
		nextItem++
		if err := ls.IngestActions(items, acts); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if ls.Version() < 2 {
		t.Fatalf("no snapshot swap happened: version = %d", ls.Version())
	}
	st := ls.Stats()
	if st.Snapshots < 1 || st.Applied == 0 || st.Pending != 0 {
		t.Fatalf("final stats = %+v", st)
	}
	if qCount.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if got := ls.System().Graph().NumEdges(); got <= sys.Graph().NumEdges() {
		t.Fatalf("graph did not grow: %d <= %d", got, sys.Graph().NumEdges())
	}
	t.Logf("served %d queries across %d snapshots (final version %d, %d edges applied)",
		qCount.Load(), st.Snapshots, st.Version, st.Applied)
}

// TestFoldFailureRetainsDelta: an injected build error makes the fold
// fail; the error must surface through ForceSnapshot, the old snapshot
// must keep serving, the delta must stay pending rather than being
// silently discarded, and the next fold must apply it.
func TestFoldFailureRetainsDelta(t *testing.T) {
	sys, _ := buildBase(t, 150, 19)
	// The failure must not count as a swap of either kind, whichever
	// fold policy would have run.
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			var failing atomic.Bool
			failing.Store(true)
			injected := errors.New("injected fold failure")
			cfg := Config{RebuildEvents: 1 << 20, IncrementalFold: incremental}
			cfg.foldHook = func() error {
				if failing.Load() {
					return injected
				}
				return nil
			}
			ls, err := NewLiveSystem(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()

			n := graph.NodeID(sys.Graph().NumNodes())
			if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: n}}); err != nil {
				t.Fatal(err)
			}
			itemID := maxItemID(sys.ActionLog()) + 1
			if err := ls.IngestActions(
				[]actionlog.Item{{ID: itemID, Keywords: []string{"kept"}}},
				[]actionlog.Action{{User: 0, Item: itemID, Time: 1}},
			); err != nil {
				t.Fatal(err)
			}
			if err := ls.ForceSnapshot(); !errors.Is(err, injected) {
				t.Fatalf("ForceSnapshot = %v, want the injected failure", err)
			}
			st := ls.Stats()
			if st.Version != 1 || st.FoldFailures != 1 || st.Snapshots != 0 ||
				st.FoldFallbacks != 0 || st.IncrementalFolds != 0 {
				t.Fatalf("stats after failed fold = %+v", st)
			}
			// Nothing lost: all 3 events still pending, and re-sent events
			// still dedupe against the retained delta.
			if st.Pending != 3 {
				t.Fatalf("pending after failed fold = %d, want 3", st.Pending)
			}
			if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: n}}); err != nil {
				t.Fatal(err)
			}
			if err := ls.Flush(); err != nil {
				t.Fatal(err)
			}
			if st = ls.Stats(); st.Duplicates != 1 || st.Pending != 3 {
				t.Fatalf("dedup against retained delta broken: %+v", st)
			}
			// Once the failure clears, the retained delta folds.
			failing.Store(false)
			if err := ls.ForceSnapshot(); err != nil {
				t.Fatalf("retry fold: %v", err)
			}
			if st = ls.Stats(); st.Version != 2 || st.Pending != 0 || st.FoldFailures != 1 {
				t.Fatalf("stats after retry fold = %+v", st)
			}
			if _, ok := ls.System().Graph().FindEdge(0, n); !ok {
				t.Fatal("retry fold lost the retained edge 0→n")
			}
		})
	}
}

func TestStalenessTimerFold(t *testing.T) {
	sys, _ := buildBase(t, 120, 17)
	ls, err := NewLiveSystem(sys, Config{
		RebuildEvents:   1 << 20, // never trip on count
		RebuildInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: graph.NodeID(sys.Graph().NumNodes() - 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	// Staleness before version, so a fold completing between the two
	// reads cannot fake a zero-staleness pending event.
	stale := ls.Staleness()
	if ls.Version() < 2 && stale <= 0 {
		t.Error("applied pending event reports zero staleness")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ls.Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("staleness fold never happened (stats %+v)", ls.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := ls.Staleness(); st != 0 {
		t.Errorf("staleness after drain fold = %v, want 0", st)
	}
}

// TestStatsConsistentCut: Stats is one cut of the pipeline, so with no
// fold every applied event is still pending — Applied == Pending on
// every call, however the reads interleave with concurrent applies.
func TestStatsConsistentCut(t *testing.T) {
	sys, _ := buildBase(t, 120, 59)
	n := sys.Graph().NumNodes()
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	stop := make(chan struct{})
	var calls, tears atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := ls.Stats(); st.Applied != uint64(st.Pending) {
				if tears.Add(1) == 1 {
					t.Errorf("torn stats: applied %d, pending %d", st.Applied, st.Pending)
				}
			}
			calls.Add(1)
		}
	}()
	// Each batch waits for a few more reads before the next one, so the
	// reads keep racing applies however the goroutines are scheduled.
	const batches, readsPerBatch = 20000, 10
	r := rng.New(61)
	item := maxItemID(sys.ActionLog()) + 1
	for b := 0; b < batches; b++ {
		acts := make([]actionlog.Action, 4)
		for i := range acts {
			acts[i] = actionlog.Action{User: graph.NodeID(r.Intn(n)), Item: item, Time: int64(b)}
		}
		if err := ls.IngestActions([]actionlog.Item{{ID: item, Keywords: []string{"cut"}}}, acts); err != nil {
			t.Fatal(err)
		}
		item++
		for c := calls.Load() + readsPerBatch; calls.Load() < c; {
			runtime.Gosched()
		}
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	st := ls.Stats()
	if want := uint64(5 * batches); st.Applied != want || st.Pending != int(want) || st.Version != 1 {
		t.Fatalf("final stats = %+v", st)
	}
	t.Logf("%d Stats calls over %d batches, %d torn", calls.Load(), batches, tears.Load())
}
