package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/tags"
)

// buildTestSystem constructs a small citation-based system with ground
// truth models (fast) once per test binary.
var (
	sysOnce sync.Once
	sysVal  *System
	sysErr  error
	sysDS   *datagen.Dataset
)

func testSystem(t testing.TB) (*System, *datagen.Dataset) {
	sysOnce.Do(func() {
		ds, err := datagen.Citation(datagen.CitationConfig{
			Authors: 400, Topics: 4, Papers: 600, Seed: 11,
		})
		if err != nil {
			sysErr = err
			return
		}
		sysDS = ds
		sysVal, sysErr = Build(ds.Graph, ds.Log, Config{
			GroundTruth:      ds.Truth,
			GroundTruthWords: ds.TruthWords,
			TopicNames:       ds.TopicNames,
			Seed:             7,
		})
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysVal, sysDS
}

func TestBuildStats(t *testing.T) {
	s, ds := testSystem(t)
	st := s.Stats()
	if st.Nodes != 400 || st.Edges != ds.Graph.NumEdges() {
		t.Fatalf("stats = %+v", st)
	}
	if st.Topics != 4 || st.Vocabulary == 0 || st.Episodes != 600 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InfluencerPolls == 0 || st.IndexEdges == 0 {
		t.Fatalf("indexes empty: %+v", st)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	empty := graph.NewBuilder(0).Build()
	if _, err := Build(empty, nil, Config{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	if _, err := Build(b.Build(), nil, Config{}); err == nil {
		t.Fatal("missing Topics accepted when learning")
	}
}

func TestBuildWithEM(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 120, Topics: 3, Papers: 200, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(ds.Graph, ds.Log, Config{Topics: 3, EMIterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.LearnDiag) != 5 {
		t.Fatalf("learn diagnostics = %v", s.LearnDiag)
	}
	res, err := s.DiscoverInfluencers([]string{"mining"}, DiscoverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("seeds = %+v", res.Seeds)
	}
}

func TestDiscoverInfluencers(t *testing.T) {
	s, _ := testSystem(t)
	res, err := s.DiscoverInfluencers([]string{"mining", "pattern"}, DiscoverOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma.Top(1)[0] != 0 {
		t.Fatalf("γ = %v, want data-mining topic", res.Gamma)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	for i, seed := range res.Seeds {
		if seed.Name == "" {
			t.Fatalf("seed %d missing name", i)
		}
		if i > 0 && res.Seeds[i].Spread < res.Seeds[i-1].Spread {
			t.Fatalf("spreads not monotone: %+v", res.Seeds)
		}
		if seed.TopTopicName == "" {
			t.Fatalf("seed %d missing topic name", i)
		}
	}
	if res.Stats.ExactEvals == 0 {
		t.Fatalf("no work recorded: %+v", res.Stats)
	}
}

func TestDiscoverUnknownKeywords(t *testing.T) {
	s, _ := testSystem(t)
	res, err := s.DiscoverInfluencers([]string{"blockchain", "mining"}, DiscoverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnknownWords) != 1 || res.UnknownWords[0] != "blockchain" {
		t.Fatalf("unknown = %v", res.UnknownWords)
	}
}

func TestDiscoverCancelled(t *testing.T) {
	s, _ := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.DiscoverInfluencers([]string{"mining"}, DiscoverOptions{K: 3, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned a partial result with %d seeds", len(res.Seeds))
	}
}

func TestDiscoverTargetedInfluencers(t *testing.T) {
	s, ds := testSystem(t)
	// Audience: users whose dominant ground-truth interest is topic 0.
	var audience []graph.NodeID
	for u, mix := range ds.Mixtures {
		if mix.Top(1)[0] == 0 {
			audience = append(audience, graph.NodeID(u))
		}
	}
	if len(audience) < 10 {
		t.Skipf("tiny audience: %d", len(audience))
	}
	res, err := s.DiscoverTargetedInfluencers([]string{"mining"}, audience, 5, 8000, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) == 0 || res.AudienceSpread <= 0 {
		t.Fatalf("degenerate targeted result: %+v", res)
	}
	if res.AudienceSpread > float64(len(audience)) {
		t.Fatalf("audience spread %v exceeds audience size %d", res.AudienceSpread, len(audience))
	}
	for _, seed := range res.Seeds {
		if seed.Spread < 0 || seed.Spread > float64(len(audience)) {
			t.Fatalf("seed spread %v out of audience range", seed.Spread)
		}
	}
}

func TestDiscoverTargetedValidation(t *testing.T) {
	s, _ := testSystem(t)
	if _, err := s.DiscoverTargetedInfluencers([]string{"mining"}, nil, 3, 100, 1, nil); err == nil {
		t.Fatal("empty audience accepted")
	}
	if _, err := s.DiscoverTargetedInfluencers([]string{"mining"}, []graph.NodeID{0}, 0, 100, 1, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.DiscoverTargetedInfluencers([]string{"mining"}, []graph.NodeID{9999}, 3, 100, 1, nil); err == nil {
		t.Fatal("out-of-range audience accepted")
	}
	if _, err := s.DiscoverTargetedInfluencers([]string{"mining"}, []graph.NodeID{0}, 3, 200_001, 1, nil); err == nil {
		t.Fatal("rrSamples past the limit accepted")
	}
}

// TestTargetedRepeatedAudience: an audience member listed several times
// counts once, so [u,u,u,u] answers exactly as [u] — seeds, per-seed and
// audience spreads, and the sampling work.
func TestTargetedRepeatedAudience(t *testing.T) {
	s, _ := testSystem(t)
	for _, u := range []graph.NodeID{0, 5, 17} {
		var once, repeated obs.Cost
		want, err := s.DiscoverTargetedInfluencers([]string{"mining"}, []graph.NodeID{u}, 3, 2000, 4, &once)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.DiscoverTargetedInfluencers([]string{"mining"}, []graph.NodeID{u, u, u, u}, 3, 2000, 4, &repeated)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || repeated != once {
			t.Errorf("audience [%d ×4] = %+v (%+v), want %+v (%+v)", u, got, repeated.RIS, want, once.RIS)
		}
	}
}

// TestTargetedAllocsFlatInSamples: a targeted request's allocations do
// not grow with the RR sample count.
func TestTargetedAllocsFlatInSamples(t *testing.T) {
	s, ds := testSystem(t)
	var audience []graph.NodeID
	for u, mix := range ds.Mixtures {
		if mix.Top(1)[0] == 0 {
			audience = append(audience, graph.NodeID(u))
		}
	}
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := s.DiscoverTargetedInfluencers([]string{"mining", "pattern"}, audience, 5, samples, 21, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2_000), allocs(20_000); small != large {
		t.Fatalf("allocations per request: %v at 2 000 samples, %v at 20 000", small, large)
	}
}

func TestSuggestKeywords(t *testing.T) {
	s, _ := testSystem(t)
	// Find a user with a keyword pool.
	var target graph.NodeID = -1
	for u := 0; u < s.Graph().NumNodes(); u++ {
		if len(s.UserKeywords(graph.NodeID(u))) >= 3 {
			target = graph.NodeID(u)
			break
		}
	}
	if target < 0 {
		t.Fatal("no user with keywords")
	}
	sug, err := s.SuggestKeywords(target, 2, tags.SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sug.Stats.PrunedByUpperBound {
		t.Skip("target user pruned (not in any poll)")
	}
	if len(sug.Keywords) == 0 {
		t.Fatalf("no keywords suggested: %+v", sug)
	}
	pool := map[string]bool{}
	for _, w := range s.UserKeywords(target) {
		pool[w] = true
	}
	for _, w := range sug.Keywords {
		if !pool[w] {
			t.Fatalf("suggested %q outside user pool", w)
		}
	}
	if err := sug.Gamma.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSuggestKeywordsRange(t *testing.T) {
	s, _ := testSystem(t)
	if _, err := s.SuggestKeywords(-1, 2, tags.SuggestOptions{}); err == nil {
		t.Fatal("negative user accepted")
	}
	if _, err := s.SuggestKeywords(9999, 2, tags.SuggestOptions{}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

func TestRankUserKeywords(t *testing.T) {
	s, _ := testSystem(t)
	var target graph.NodeID = -1
	for u := 0; u < s.Graph().NumNodes(); u++ {
		if len(s.UserKeywords(graph.NodeID(u))) >= 2 {
			target = graph.NodeID(u)
			break
		}
	}
	if target < 0 {
		t.Skip("no keyword-rich user")
	}
	ranked, err := s.RankUserKeywords(target, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Spread > ranked[i-1].Spread {
			t.Fatalf("ranking unsorted: %+v", ranked)
		}
	}
}

func TestRadar(t *testing.T) {
	s, _ := testSystem(t)
	r, err := s.Radar("mining")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Topics) != 4 || len(r.Values) != 4 {
		t.Fatalf("radar = %+v", r)
	}
	if r.Topics[0] != "data mining" {
		t.Fatalf("topic names = %v", r.Topics)
	}
	if r.Values.Top(1)[0] != 0 {
		t.Fatalf("radar(mining) = %v, want topic 0 dominant", r.Values)
	}
	if _, err := s.Radar("nonexistent"); err == nil {
		t.Fatal("unknown keyword accepted")
	}
}

func TestInfluencePaths(t *testing.T) {
	s, _ := testSystem(t)
	// Use the highest out-degree node for a non-trivial tree.
	var root graph.NodeID
	bestDeg := -1
	for u := 0; u < s.Graph().NumNodes(); u++ {
		if d := s.Graph().OutDegree(graph.NodeID(u)); d > bestDeg {
			bestDeg, root = d, graph.NodeID(u)
		}
	}
	pg, err := s.InfluencePaths(root, PathOptions{Theta: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Root != root || !pg.Forward {
		t.Fatalf("payload root = %+v", pg)
	}
	if len(pg.Nodes) < 2 {
		t.Fatalf("trivial tree (%d nodes) from hub", len(pg.Nodes))
	}
	if len(pg.Links) != len(pg.Nodes)-1 {
		t.Fatalf("links = %d for %d nodes", len(pg.Links), len(pg.Nodes))
	}
	// Node sizes: root's subtree mass equals total spread (up to
	// floating-point summation order).
	if d := pg.Nodes[0].Size - pg.Spread; d > 1e-9 || d < -1e-9 {
		t.Fatalf("root size %v != spread %v", pg.Nodes[0].Size, pg.Spread)
	}
	// Highlight a leaf's path.
	leaf := pg.Nodes[len(pg.Nodes)-1].ID
	path, err := s.HighlightPath(pg, leaf)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != root || path[len(path)-1] != leaf {
		t.Fatalf("path = %v", path)
	}
	if _, err := s.HighlightPath(pg, 9999); err == nil {
		t.Fatal("foreign node accepted in HighlightPath")
	}
}

func TestInfluencePathsReverse(t *testing.T) {
	s, _ := testSystem(t)
	var root graph.NodeID
	bestDeg := -1
	for u := 0; u < s.Graph().NumNodes(); u++ {
		if d := s.Graph().InDegree(graph.NodeID(u)); d > bestDeg {
			bestDeg, root = d, graph.NodeID(u)
		}
	}
	pg, err := s.InfluencePaths(root, PathOptions{Theta: 0.005, Reverse: true})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Forward {
		t.Fatal("reverse exploration marked forward")
	}
	// Links in reverse mode must point TOWARD the root.
	for _, l := range pg.Links {
		if l.Target == pg.Root {
			return // found at least one inbound link
		}
	}
	if len(pg.Links) > 0 {
		t.Fatalf("no link targets the root in reverse mode: %+v", pg.Links[:minInt(3, len(pg.Links))])
	}
}

func TestInfluencePathsKeywordContext(t *testing.T) {
	s, _ := testSystem(t)
	pg1, err := s.InfluencePaths(0, PathOptions{Keywords: []string{"mining"}, Theta: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	pg2, err := s.InfluencePaths(0, PathOptions{Keywords: []string{"image"}, Theta: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	_ = pg1
	_ = pg2 // trees may differ; both must be valid payloads
	if _, err := s.InfluencePaths(-1, PathOptions{}); err == nil {
		t.Fatal("invalid user accepted")
	}
}

// Out-of-range path options are errors, not silently widened: θ ≤ 0
// used to reach the MIA walk as a near-zero threshold (the whole
// reachable graph) and a negative MaxNodes lifted the payload cap.
func TestInfluencePathsRejectsBadOptions(t *testing.T) {
	s, _ := testSystem(t)
	for _, opt := range []PathOptions{
		{Theta: -1},
		{Theta: 1},
		{Theta: 2},
		{Theta: math.NaN()},
		{MaxNodes: -1},
	} {
		if _, err := s.InfluencePaths(0, opt); err == nil {
			t.Errorf("InfluencePaths accepted %+v", opt)
		}
	}
}

func TestResolveUserAndComplete(t *testing.T) {
	s, _ := testSystem(t)
	name := s.Graph().Name(5)
	id, err := s.ResolveUser(name)
	if err != nil || id != 5 {
		t.Fatalf("ResolveUser(%q) = %d, %v", name, id, err)
	}
	id, err = s.ResolveUser("17")
	if err != nil || id != 17 {
		t.Fatalf("ResolveUser(17) = %d, %v", id, err)
	}
	if _, err := s.ResolveUser("no such person"); err == nil {
		t.Fatal("unknown user accepted")
	}
	prefix := name[:3]
	comps := s.Complete(prefix, 5)
	if len(comps) == 0 {
		t.Fatalf("no completions for %q", prefix)
	}
	for _, c := range comps {
		if !strings.HasPrefix(c.Key, prefix) {
			t.Fatalf("completion %q lacks prefix %q", c.Key, prefix)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	s, _ := testSystem(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kw := []string{"mining"}
			if i%2 == 1 {
				kw = []string{"social", "network"}
			}
			if _, err := s.DiscoverInfluencers(kw, DiscoverOptions{K: 3}); err != nil {
				errs <- err
			}
			if _, err := s.InfluencePaths(graph.NodeID(i), PathOptions{}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBuildWorkersDeterministic is the system-level determinism
// contract behind the Workers knob: for a fixed seed, core.Build — EM
// learning included — produces a system that answers every service
// identically at any worker count.
func TestBuildWorkersDeterministic(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 250, Topics: 3, Papers: 350, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *System {
		sys, err := Build(ds.Graph, ds.Log, Config{
			Topics:  3, // exercise the EM path, not just the indexes
			Tags:    tags.IndexOptions{Polls: 300},
			Seed:    13,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := build(1)
	for _, w := range []int{2, 4} {
		sys := build(w)
		if a, b := base.Stats(), sys.Stats(); a != b {
			t.Fatalf("workers=%d: stats %+v != %+v", w, b, a)
		}
		for _, q := range [][]string{{"mining"}, {"data", "learning"}} {
			ra, err := base.DiscoverInfluencers(q, DiscoverOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := sys.DiscoverInfluencers(q, DiscoverOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("workers=%d: query %v differs:\n%+v\nvs\n%+v", w, q, rb, ra)
			}
		}
		var target graph.NodeID = -1
		for u := 0; u < base.Graph().NumNodes(); u++ {
			if len(base.UserKeywords(graph.NodeID(u))) >= 3 {
				target = graph.NodeID(u)
				break
			}
		}
		if target >= 0 {
			sa, err := base.SuggestKeywords(target, 2, tags.SuggestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sb, err := sys.SuggestKeywords(target, 2, tags.SuggestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("workers=%d: suggestions differ: %+v vs %+v", w, sb, sa)
			}
		}
		pa, err := base.InfluencePaths(0, PathOptions{Theta: 0.01, MaxNodes: 50})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sys.InfluencePaths(0, PathOptions{Theta: 0.01, MaxNodes: 50})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("workers=%d: influence paths differ", w)
		}
	}
}
