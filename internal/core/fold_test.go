package core

import (
	"reflect"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/rng"
)

// foldWorld builds the base system a live deployment would fold
// action deltas into.
func foldWorld(t *testing.T) *System {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 350, Topics: 4, Papers: 500, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(ds.Graph, ds.Log, Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// actionDelta merges a batch of new items, each acted on by a few
// random users, into from's log — the shape of a graph-unchanged delta.
func actionDelta(from *System, seed uint64) *actionlog.Log {
	r := rng.New(seed)
	n := from.Graph().NumNodes()
	next := int32(0)
	for _, ep := range from.ActionLog().Episodes {
		next = max(next, ep.Item.ID+1)
	}
	var items []actionlog.Item
	var acts []actionlog.Action
	for i := int32(0); i < 12; i++ {
		items = append(items, actionlog.Item{ID: next + i, Keywords: []string{"mining", "fresh"}})
		for a := 0; a < 5; a++ {
			acts = append(acts, actionlog.Action{User: graph.NodeID(r.Intn(n)), Item: next + i, Time: int64(a)})
		}
	}
	return actionlog.Merge(from.ActionLog(), n, items, acts)
}

// rebuildFrom is the reference a fold must match: Build over base's
// graph and the given log, adopting base's models at base's seed.
func rebuildFrom(t *testing.T, base *System, log *actionlog.Log) *System {
	t.Helper()
	cfg := base.BuildConfig()
	cfg.TopicNames = nil
	cfg.GroundTruth = base.Propagation()
	cfg.GroundTruthWords = base.Keywords()
	full, err := Build(base.Graph(), log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// requireSystemsEqual compares two systems query-by-query across every
// analysis service.
func requireSystemsEqual(t *testing.T, a, b *System) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	for _, q := range [][]string{{"mining"}, {"data", "learning"}, {"network", "social"}} {
		ra, err1 := a.DiscoverInfluencers(q, DiscoverOptions{K: 6})
		rb, err2 := b.DiscoverInfluencers(q, DiscoverOptions{K: 6})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("query %v differs:\n%+v\nvs\n%+v", q, ra, rb)
		}
	}
	checked := 0
	for u := 0; u < a.Graph().NumNodes() && checked < 5; u++ {
		if len(a.UserKeywords(graph.NodeID(u))) < 3 {
			continue
		}
		checked++
		ka, err1 := a.RankUserKeywords(graph.NodeID(u), 5, nil)
		kb, err2 := b.RankUserKeywords(graph.NodeID(u), 5, nil)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("keyword ranks of %d differ: %+v vs %+v", u, ka, kb)
		}
	}
	for u := 0; u < a.Graph().NumNodes(); u += 97 {
		pa, err1 := a.InfluencePaths(graph.NodeID(u), PathOptions{Theta: 0.01, MaxNodes: 60})
		pb, err2 := b.InfluencePaths(graph.NodeID(u), PathOptions{Theta: 0.01, MaxNodes: 60})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("paths of %d differ", u)
		}
	}
}

// Fold over a graph-unchanged delta shares the graph, the models and
// both indexes, and answers every service exactly like Build at the
// same seed.
func TestFoldMatchesBuild(t *testing.T) {
	base := foldWorld(t)
	log := actionDelta(base, 1)
	folded, err := Fold(base, log, base.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if folded.Graph() != base.Graph() || folded.Propagation() != base.Propagation() ||
		folded.OTIMIndex() != base.OTIMIndex() || folded.TagsIndex() != base.TagsIndex() {
		t.Fatal("fold rebuilt a structure it must share")
	}
	if tm := folded.Timings(); !tm.Incremental || tm.OTIM != 0 || tm.Tags != 0 {
		t.Fatalf("fold timings = %+v", tm)
	}
	requireSystemsEqual(t, rebuildFrom(t, base, log), folded)
}

// Folding twice in a row (each fold's output is the next fold's base)
// must still match a single Build over the union — the live system
// folds repeatedly against folded bases.
func TestFoldChains(t *testing.T) {
	base := foldWorld(t)
	step1, err := Fold(base, actionDelta(base, 2), base.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := actionDelta(step1, 3)
	step2, err := Fold(step1, log, step1.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireSystemsEqual(t, rebuildFrom(t, base, log), step2)
}

// A log over more users than the graph has nodes is a delta that grew
// the graph: Fold must refuse it rather than share stale indexes.
func TestFoldRejectsNodeGrowth(t *testing.T) {
	base := foldWorld(t)
	n := base.Graph().NumNodes()
	grown := actionlog.Merge(base.ActionLog(), n+1, nil, nil)
	if _, err := Fold(base, grown, base.BuildConfig()); err == nil {
		t.Fatal("fold across node growth must be refused")
	}
}
