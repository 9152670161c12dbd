package stream

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/tic"
)

// expectedFold replays what a from-scratch rebuild at the given seed
// would produce for the given delta: the same graph growth, the same
// priors, the same carry-over config — the reference a fold must match
// query-for-query.
func expectedFold(t *testing.T, sys *core.System, seed uint64, edges []EdgeEvent,
	items []actionlog.Item, acts []actionlog.Action) *core.System {
	t.Helper()
	b := graph.NewBuilder(sys.Graph().NumNodes())
	b.AddGraph(sys.Graph())
	priors := map[edgeKey][]float64{}
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
		priors[edgeKey{e.Src, e.Dst}] = weightedJaccardPrior(sys, e.Src, e.Dst)
	}
	g := b.Build()
	model, err := tic.Remap(sys.Propagation(), g, func(u, v graph.NodeID) []float64 {
		return priors[edgeKey{u, v}]
	})
	if err != nil {
		t.Fatal(err)
	}
	log := actionlog.Build(g.NumNodes(),
		append(sys.ActionLog().Items(), items...),
		append(sys.ActionLog().Actions(), acts...))
	cfg := sys.BuildConfig()
	cfg.Seed = seed
	cfg.TopicNames = nil
	cfg.GroundTruth = model
	cfg.GroundTruthWords = sys.Keywords()
	full, err := core.Build(g, log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// compareSystems checks two systems answer every service identically.
func compareSystems(t *testing.T, want, got *core.System) {
	t.Helper()
	if a, b := want.Stats(), got.Stats(); a != b {
		t.Fatalf("stats differ: want %+v, got %+v", a, b)
	}
	for _, q := range [][]string{{"mining"}, {"data", "learning"}, {"systems"}} {
		ra, err1 := want.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		rb, err2 := got.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %v differs:\nwant %+v\ngot  %+v", q, ra, rb)
		}
	}
	for u := 0; u < want.Graph().NumNodes(); u += 41 {
		pa, err1 := want.InfluencePaths(graph.NodeID(u), core.PathOptions{Theta: 0.01, MaxNodes: 40})
		pb, err2 := got.InfluencePaths(graph.NodeID(u), core.PathOptions{Theta: 0.01, MaxNodes: 40})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("paths of %d differ", u)
		}
	}
}

// An action/item-only delta must fold incrementally without touching
// graph, model or indexes (the indexes are shared wholesale), answering
// exactly like a rebuild at the unchanged seed.
func TestIncrementalFoldActionOnlyDelta(t *testing.T) {
	sys, _ := buildBase(t, 200, 31)
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20, IncrementalFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	itemID := maxItemID(sys.ActionLog()) + 1
	items := []actionlog.Item{{ID: itemID, Keywords: []string{"data"}}}
	acts := []actionlog.Action{{User: 1, Item: itemID, Time: 9}}
	if err := ls.IngestActions(items, acts); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	got := ls.System()
	if got.Graph() != sys.Graph() {
		t.Fatal("action-only fold rebuilt the graph")
	}
	if got.OTIMIndex() != sys.OTIMIndex() {
		t.Fatal("action-only fold rebuilt the OTIM index")
	}
	if got.TagsIndex() != sys.TagsIndex() {
		t.Fatal("action-only fold rebuilt the influencer index")
	}
	if st := ls.Stats(); st.IncrementalFolds != 1 || st.FoldFallbacks != 0 {
		t.Fatalf("fold counters = %+v", st)
	}
	if tm := got.Timings(); !tm.Incremental {
		t.Fatalf("fold timings = %+v", tm)
	}
	compareSystems(t, expectedFold(t, sys, sys.BuildConfig().Seed, nil, items, acts), got)
}

// Node growth must fall back to the full pipeline — and count it.
func TestIncrementalFoldFallbackOnNodeGrowth(t *testing.T) {
	sys, _ := buildBase(t, 150, 37)
	n := graph.NodeID(sys.Graph().NumNodes())
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20, IncrementalFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: n, DstName: "grown"}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	st := ls.Stats()
	if st.IncrementalFolds != 0 || st.FoldFallbacks != 1 || st.Snapshots != 1 {
		t.Fatalf("fold counters = %+v", st)
	}
	if got := ls.System().Graph().NumNodes(); got != int(n)+1 {
		t.Fatalf("nodes after fallback fold = %d", got)
	}
}

// The stream-level guarantee for a mixed delta: a LiveSystem with
// IncrementalFold swaps in a snapshot query-for-query identical to
// core.Build over the grown inputs at the per-generation perturbed seed.
func TestIncrementalFoldMatchesFullRebuild(t *testing.T) {
	sys, _ := buildBase(t, 250, 29)
	n := graph.NodeID(sys.Graph().NumNodes())
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20, IncrementalFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Skip any edge already present so the expected-reference builder
	// sees exactly what the overlay accepted.
	var edges []EdgeEvent
	for _, e := range []EdgeEvent{{Src: 0, Dst: n - 1}, {Src: 3, Dst: 7}, {Src: n - 2, Dst: 1}} {
		if _, ok := sys.Graph().FindEdge(e.Src, e.Dst); !ok {
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		t.Fatal("test delta fully collided with the base graph")
	}
	itemID := maxItemID(sys.ActionLog()) + 1
	items := []actionlog.Item{{ID: itemID, Keywords: []string{"mining", "fresh"}}}
	acts := []actionlog.Action{{User: 2, Item: itemID, Time: 5}}
	if err := ls.IngestEdges(edges); err != nil {
		t.Fatal(err)
	}
	if err := ls.IngestActions(items, acts); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	want := expectedFold(t, sys, foldSeed(sys.BuildConfig().Seed, 2), edges, items, acts)
	compareSystems(t, want, ls.System())
}

// A delta that touches the graph rebuilds rather than reusing the
// indexes, and the swap counts as one fallback.
func TestIncrementalFoldEdgeDeltaRebuilds(t *testing.T) {
	sys, _ := buildBase(t, 150, 41)
	n := graph.NodeID(sys.Graph().NumNodes())
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20, IncrementalFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: n - 1}, {Src: 5, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if st := ls.Stats(); st.IncrementalFolds != 0 || st.FoldFallbacks != 1 || st.Snapshots != 1 {
		t.Fatalf("fold counters = %+v", st)
	}
	got := ls.System()
	if got.OTIMIndex() == sys.OTIMIndex() || got.TagsIndex() == sys.TagsIndex() || got.Timings().Incremental {
		t.Fatal("edge-bearing fold reused the indexes")
	}
}

// The item-dedup memory must be bounded by live state: after a fold the
// overlay-item map is emptied (the ids moved into the sorted base
// tier) and duplicate detection still works across the fold.
func TestItemDedupShrinksAcrossFolds(t *testing.T) {
	sys, _ := buildBase(t, 120, 43)
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	base := maxItemID(sys.ActionLog()) + 1
	var items []actionlog.Item
	for i := int32(0); i < 50; i++ {
		items = append(items, actionlog.Item{ID: base + i, Keywords: []string{"x"}})
	}
	if err := ls.IngestActions(items, nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	ls.mu.RLock()
	pendingItems := len(ls.st.itemIDs)
	baseLen := len(ls.st.baseItems)
	ls.mu.RUnlock()
	if pendingItems != 50 {
		t.Fatalf("overlay item set = %d, want 50", pendingItems)
	}

	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	ls.mu.RLock()
	shrunk := len(ls.st.itemIDs)
	grownBase := len(ls.st.baseItems)
	ls.mu.RUnlock()
	if shrunk != 0 {
		t.Fatalf("overlay item set after fold = %d, want 0 (set must shrink across folds)", shrunk)
	}
	if grownBase != baseLen+50 {
		t.Fatalf("base item tier = %d, want %d", grownBase, baseLen+50)
	}

	// Dedup still holds across the fold: every folded id is rejected.
	if err := ls.IngestActions(items[:10], nil); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := ls.Stats(); st.Duplicates != 10 {
		t.Fatalf("duplicates after re-send = %+v", st)
	}
}

// Fold-failure retry: a fold that dies must leave the pending delta —
// including its staleness clock — intact, and a successful retry must
// produce a snapshot identical query-by-query to a never-failed fold.
func TestFoldFailureRetryIdentical(t *testing.T) {
	sys, _ := buildBase(t, 180, 47)
	n := graph.NodeID(sys.Graph().NumNodes())

	fails := 1
	cfg := Config{RebuildEvents: 1 << 20}
	cfg.foldHook = func() error {
		if fails > 0 {
			fails--
			return errors.New("injected fold failure")
		}
		return nil
	}
	flaky, err := NewLiveSystem(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	clean, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	edges := []EdgeEvent{{Src: 1, Dst: n - 1}}
	itemID := maxItemID(sys.ActionLog()) + 1
	items := []actionlog.Item{{ID: itemID, Keywords: []string{"retry"}}}
	acts := []actionlog.Action{{User: 4, Item: itemID, Time: 3}}
	for _, ls := range []*LiveSystem{flaky, clean} {
		if err := ls.IngestEdges(edges); err != nil {
			t.Fatal(err)
		}
		if err := ls.IngestActions(items, acts); err != nil {
			t.Fatal(err)
		}
		if err := ls.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flaky.mu.RLock()
	sinceBefore := flaky.st.since
	eventsBefore := flaky.st.ov.events
	flaky.mu.RUnlock()

	if err := flaky.ForceSnapshot(); err == nil {
		t.Fatal("injected fold failure did not surface")
	}
	st := flaky.Stats()
	if st.FoldFailures != 1 || st.Version != 1 {
		t.Fatalf("stats after injected failure = %+v", st)
	}
	flaky.mu.RLock()
	sinceAfter := flaky.st.since
	eventsAfter := flaky.st.ov.events
	flaky.mu.RUnlock()
	if !sinceAfter.Equal(sinceBefore) {
		t.Fatalf("staleness clock reset by failed fold: %v → %v", sinceBefore, sinceAfter)
	}
	if eventsAfter != eventsBefore {
		t.Fatalf("pending events %d → %d across failed fold", eventsBefore, eventsAfter)
	}

	// Retry succeeds and the outcome is indistinguishable from a system
	// that never failed.
	if err := flaky.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := clean.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if flaky.Version() != clean.Version() {
		t.Fatalf("versions diverged: %d vs %d", flaky.Version(), clean.Version())
	}
	compareSystems(t, clean.System(), flaky.System())
}

// The staleness bound: with the deadline armed from the oldest pending
// event, a quiet overlay folds within RebuildInterval (+ fold cost),
// not the 1.5× the old half-interval ticker allowed.
func TestStalenessBoundedByInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const interval = time.Second
	sys, _ := buildBase(t, 100, 51)
	ls, err := NewLiveSystem(sys, Config{
		RebuildEvents:   1 << 20,
		RebuildInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	// Desynchronize the event arrival from system start so a phase-based
	// ticker (the old design) would provably miss the deadline.
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	if err := ls.IngestEdges([]EdgeEvent{{Src: 0, Dst: graph.NodeID(sys.Graph().NumNodes() - 1)}}); err != nil {
		t.Fatal(err)
	}
	for ls.Version() < 2 {
		if time.Since(start) > 3*interval {
			t.Fatalf("staleness fold never happened (stats %+v)", ls.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	// Old behavior: first stale tick at ≥ 1.2× interval after arrival
	// (ticker phase +300ms). New behavior: deadline fires at interval,
	// leaving only the fold itself on top.
	if limit := interval + 200*time.Millisecond; elapsed > limit {
		t.Fatalf("stale overlay folded after %v, want ≤ %v", elapsed, limit)
	}
}

// Fold soak: concurrent ingest, queries and forced swaps alternating
// edge-bearing deltas (rebuilds) with action-only deltas (index reuse).
// Run raced in CI; asserts the pipeline stays sane (both kinds of fold
// happen, nothing fails, versions rise).
func TestIncrementalFoldSoak(t *testing.T) {
	sys, _ := buildBase(t, 150, 53)
	n := graph.NodeID(sys.Graph().NumNodes())
	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 64, IncrementalFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := [][]string{{"mining", "data"}, {"learning"}, {"query", "systems"}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ls.System().DiscoverInfluencers(queries[(w+i)%len(queries)], core.DiscoverOptions{K: 4}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if _, err := ls.System().InfluencePaths(graph.NodeID((w*31+i*7)%int(n)), core.PathOptions{MaxNodes: 30}); err != nil {
					t.Errorf("paths: %v", err)
					return
				}
			}
		}(w)
	}

	r := rng.New(55)
	itemID := maxItemID(sys.ActionLog()) + 1
	for round := 0; round < 6; round++ {
		if round%2 == 0 {
			var edges []EdgeEvent
			for i := 0; i < 40; i++ {
				edges = append(edges, EdgeEvent{
					Src: graph.NodeID(r.Intn(int(n))), Dst: graph.NodeID(r.Intn(int(n))),
				})
			}
			if err := ls.IngestEdges(edges); err != nil {
				t.Fatal(err)
			}
		}
		items := []actionlog.Item{{ID: itemID, Keywords: []string{"soak", "mining"}}}
		acts := []actionlog.Action{{User: graph.NodeID(r.Intn(int(n))), Item: itemID, Time: int64(round)}}
		itemID++
		if err := ls.IngestActions(items, acts); err != nil {
			t.Fatal(err)
		}
		if err := ls.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := ls.Stats()
	if st.FoldFailures != 0 {
		t.Fatalf("fold failures during soak: %+v", st)
	}
	if st.IncrementalFolds == 0 || st.FoldFallbacks == 0 || st.IncrementalFolds+st.FoldFallbacks != st.Snapshots {
		t.Fatalf("want both index reuse and rebuilds during soak: %+v", st)
	}
	if st.Version != 1+st.Snapshots {
		t.Fatalf("version drift: %+v", st)
	}
}
