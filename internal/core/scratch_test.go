package core

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/otim"
)

// heapAllocated returns the bytes f allocates on the heap.
func heapAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Warm query scratch outlives garbage collection: after two GCs — which
// empty a sync.Pool — the next IM and path queries reuse the idle
// engine and calculator instead of building megabytes of scratch.
func TestScratchSurvivesGC(t *testing.T) {
	s, _ := testSystem(t)
	im := func() {
		if _, err := s.DiscoverInfluencers([]string{"data", "mining"}, DiscoverOptions{K: 20}); err != nil {
			t.Fatal(err)
		}
	}
	paths := func() {
		if _, err := s.InfluencePaths(5, PathOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	im()
	paths()
	runtime.GC()
	runtime.GC()
	const limit = 64 << 10
	if b := heapAllocated(im); b >= limit {
		t.Errorf("DiscoverInfluencers after two GCs allocated %d B, want < %d", b, limit)
	}
	if b := heapAllocated(paths); b >= limit {
		t.Errorf("InfluencePaths after two GCs allocated %d B, want < %d", b, limit)
	}
}

// Concurrent queries over shared free lists answer byte for byte what
// serial ones do, and the lists keep at most GOMAXPROCS idle values
// once the burst drains. Run it with -race.
func TestScratchConcurrentIdentical(t *testing.T) {
	s, _ := testSystem(t)
	queries := [][]string{{"mining"}, {"social", "network"}, {"data", "mining"}, {"learning"}}
	answer := func(i int) []byte {
		im, err := s.DiscoverInfluencers(queries[i%len(queries)], DiscoverOptions{K: 3 + i%5})
		if err != nil {
			t.Error(err)
			return nil
		}
		pg, err := s.InfluencePaths(graph.NodeID(i%s.g.NumNodes()), PathOptions{Reverse: i%2 == 1})
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal([]any{im, pg})
		if err != nil {
			t.Error(err)
		}
		return b
	}
	workers := 4 * runtime.GOMAXPROCS(0)
	want := make([][]byte, workers)
	for i := range want {
		want[i] = answer(i)
	}
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = answer(i)
		}(i)
	}
	wg.Wait()
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("query %d: concurrent answer differs from serial", i)
		}
	}
	s.engines.mu.Lock()
	engines := len(s.engines.idle)
	s.engines.mu.Unlock()
	s.calcs.mu.Lock()
	calcs := len(s.calcs.idle)
	s.calcs.mu.Unlock()
	if max := runtime.GOMAXPROCS(0); engines > max || calcs > max {
		t.Errorf("%d idle engines and %d idle calculators after the burst, want ≤ GOMAXPROCS = %d each", engines, calcs, max)
	}
}

// A k = n query grows its engine's slab past the retention bound; the
// engine it leaves idle holds a trimmed slab.
func TestScratchTrimsOutsizedSlab(t *testing.T) {
	// A dense, strongly activating world: its MIOA trees average well
	// over SlabKeep nodes, so seeding every user outgrows the bound.
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 300, Topics: 4, AvgCitations: 12, EdgeScale: 0.9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(ds.Graph, ds.Log, Config{GroundTruth: ds.Truth, GroundTruthWords: ds.TruthWords, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := s.g.NumNodes()
	var cost obs.Cost
	if _, err := s.DiscoverInfluencers([]string{"data", "mining"}, DiscoverOptions{K: n, Theta: 0.001, Cost: &cost}); err != nil {
		t.Fatal(err)
	}
	// Each candidate's tree is built into the slab once per query.
	if built := cost.MIA.Nodes; built <= uint64(otim.SlabKeep*n) {
		t.Fatalf("k = n query built %d tree nodes, not past the %d-record bound", built, otim.SlabKeep*n)
	}
	s.engines.mu.Lock()
	defer s.engines.mu.Unlock()
	if len(s.engines.idle) != 1 {
		t.Fatalf("%d idle engines after one query, want 1", len(s.engines.idle))
	}
	if c := s.engines.idle[0].SlabCap(); c > otim.SlabKeep*n {
		t.Errorf("idle engine kept a %d-record slab, want ≤ %d", c, otim.SlabKeep*n)
	}
}
