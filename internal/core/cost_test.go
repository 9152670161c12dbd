package core

import (
	"reflect"
	"testing"

	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/tags"
)

// costProfile runs one of each accounted query against sys and returns
// the per-query cost ledgers.
func costProfile(t *testing.T, sys *System) map[string]*obs.Cost {
	t.Helper()
	out := map[string]*obs.Cost{}

	c := &obs.Cost{}
	if _, err := sys.DiscoverInfluencers([]string{"mining", "pattern"}, DiscoverOptions{K: 5, Cost: c}); err != nil {
		t.Fatal(err)
	}
	out["discover"] = c

	target := graph.NodeID(-1)
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if len(sys.UserKeywords(graph.NodeID(u))) >= 2 {
			target = graph.NodeID(u)
			break
		}
	}
	if target < 0 {
		t.Fatal("no keyword-rich user in the test dataset")
	}
	c = &obs.Cost{}
	if _, err := sys.SuggestKeywords(target, 2, tags.SuggestOptions{Cost: c}); err != nil {
		t.Fatal(err)
	}
	out["suggest"] = c

	c = &obs.Cost{}
	if _, err := sys.RankUserKeywords(target, 5, c); err != nil {
		t.Fatal(err)
	}
	out["keywords"] = c

	c = &obs.Cost{}
	if _, err := sys.InfluencePaths(target, PathOptions{Theta: 0.01, MaxNodes: 30, Cost: c}); err != nil {
		t.Fatal(err)
	}
	out["paths"] = c

	audience := []graph.NodeID{1, 2, 3, 5, 8, 13, 21, 34}
	c = &obs.Cost{}
	if _, err := sys.DiscoverTargetedInfluencers([]string{"mining"}, audience, 3, 500, 42, c); err != nil {
		t.Fatal(err)
	}
	out["targeted"] = c

	return out
}

// TestCostDeterministicAcrossWorkers pins the accounting contract: for
// a fixed seed, the cost counters of every query are bit-identical no
// matter how many workers built the system — the build is worker-count
// independent and the query path is serial.
func TestCostDeterministicAcrossWorkers(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 250, Topics: 4, Papers: 400, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]*obs.Cost
	for _, workers := range []int{1, 2, 4} {
		sys, err := Build(ds.Graph, ds.Log, Config{
			GroundTruth:      ds.Truth,
			GroundTruthWords: ds.TruthWords,
			TopicNames:       ds.TopicNames,
			Seed:             7,
			Workers:          workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prof := costProfile(t, sys)
		if base == nil {
			base = prof
			for name, c := range prof {
				if c.IsZero() {
					t.Errorf("%s: query recorded no cost at all", name)
				}
			}
			continue
		}
		for name, c := range prof {
			if !reflect.DeepEqual(base[name], c) {
				t.Errorf("workers=%d %s: cost diverged\n  workers=1: %+v\n  workers=%d: %+v",
					workers, name, base[name], workers, c)
			}
		}
	}
}

// TestCostNilIsNoOp pins the disabled path: queries with no accumulator
// still answer identically (spot-checked on seeds) and don't panic.
func TestCostNilIsNoOp(t *testing.T) {
	sys, _ := testSystem(t)
	withCost, err := sys.DiscoverInfluencers([]string{"mining"}, DiscoverOptions{K: 3, Cost: &obs.Cost{}})
	if err != nil {
		t.Fatal(err)
	}
	without, err := sys.DiscoverInfluencers([]string{"mining"}, DiscoverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCost.Seeds, without.Seeds) {
		t.Errorf("accounting changed the answer:\n  with: %+v\n  without: %+v", withCost.Seeds, without.Seeds)
	}
}

// TestCostStagesAttributed checks each query type charges the engine
// stages it actually exercises.
func TestCostStagesAttributed(t *testing.T) {
	sys, _ := testSystem(t)
	prof := costProfile(t, sys)

	if d := prof["discover"]; d.OTIM.ExactEvals == 0 || d.MIA.Trees == 0 || d.MIA.Nodes == 0 {
		t.Errorf("discover cost missing OTIM/MIA work: %+v", d)
	}
	if d := prof["suggest"]; d.Tags.Polls == 0 || d.Tags.Trees == 0 {
		t.Errorf("suggest cost missing tags work: %+v", d)
	}
	if d := prof["keywords"]; d.Tags.Trees == 0 {
		t.Errorf("keyword ranking cost missing tags work: %+v", d)
	}
	if d := prof["paths"]; d.MIA.Trees != 1 || d.MIA.Nodes == 0 {
		t.Errorf("paths cost should charge exactly one ball walk: %+v", d)
	}
	if d := prof["targeted"]; d.RIS.Samples != 500 || d.RIS.Nodes == 0 {
		t.Errorf("targeted cost should charge exactly rrSamples RR sets: %+v", d)
	}
}
