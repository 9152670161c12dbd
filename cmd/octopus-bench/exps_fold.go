package main

import (
	"fmt"
	"reflect"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/otim"
	"octopus/internal/rng"
)

// E17 — index-reusing snapshot folds: a delta that leaves the graph
// unchanged (the live-traffic majority: actions and items) shares the
// graph, the model and both indexes with its predecessor, so it must
// fold ≥5× faster than a full rebuild, with a query-level identity
// check against a from-scratch rebuild at the same seed. Deltas that
// touch the graph always rebuild, so they have no row here.
func runE17(e *env) error {
	// EdgeScale 0.1 keeps ground-truth activation probabilities in the
	// range EM learns from real logs (~0.01–0.15); the generator default
	// of 0.4 makes every hub's influence region span the whole graph,
	// which no θ-bounded MIA deployment would tolerate.
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors:   e.sizes.foldAuthors,
		Topics:    6,
		EdgeScale: 0.1,
		Seed:      e.seed ^ 0xe17,
	})
	if err != nil {
		return err
	}
	base, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		OTIM:             otim.BuildOptions{Samples: 2 * ds.Truth.NumTopics(), SampleK: 10},
		Seed:             e.seed ^ 0x17e,
	})
	if err != nil {
		return err
	}
	g := base.Graph()
	n := g.NumNodes()
	fmt.Fprintf(e.out, "base system: %d nodes, %d edges, %d topic samples\n",
		n, g.NumEdges(), base.OTIMIndex().NumSamples())

	// One full RebuildEvents batch of social actions with no graph growth.
	r := rng.New(e.seed ^ 0x71e)
	maxItem := int32(0)
	for _, ep := range ds.Log.Episodes {
		maxItem = max(maxItem, ep.Item.ID)
	}
	items := make([]actionlog.Item, 64)
	var acts []actionlog.Action
	for k := range items {
		items[k] = actionlog.Item{ID: maxItem + int32(k) + 1, Keywords: []string{"mining", "data", "systems"}}
		for a := 0; a < 64; a++ {
			acts = append(acts, actionlog.Action{User: graph.NodeID(r.Intn(n)), Item: items[k].ID, Time: int64(a)})
		}
	}

	// Shared swap prep, exactly as stream.LiveSystem.rebuild pays it: a
	// log merge proportional to the delta.
	prepStart := time.Now()
	log := actionlog.Merge(base.ActionLog(), n, items, acts)
	prep := time.Since(prepStart)

	cfg := base.BuildConfig()
	foldStart := time.Now()
	folded, err := core.Fold(base, log, cfg)
	if err != nil {
		return fmt.Errorf("E17: %w", err)
	}
	inc := prep + time.Since(foldStart)

	fullStart := time.Now()
	cfg.GroundTruth = base.Propagation()
	cfg.GroundTruthWords = base.Keywords()
	rebuilt, err := core.Build(g, log, cfg)
	if err != nil {
		return err
	}
	fullDur := prep + time.Since(fullStart)

	if err := foldIdentical(rebuilt, folded); err != nil {
		return fmt.Errorf("E17: %w", err)
	}
	speedup := float64(fullDur) / float64(inc)
	fmt.Fprintf(e.out, "%-14s %-10s %-10s %-8s %s\n", "delta", "full(ms)", "fold(ms)", "speedup", "identical")
	fmt.Fprintf(e.out, "%-14s %-10.1f %-10.1f %-8.1f yes\n", "actions(4096)",
		float64(fullDur.Microseconds())/1e3, float64(inc.Microseconds())/1e3, speedup)
	e.record("fold_actions(4096)", map[string]any{
		"fullMillis":        float64(fullDur.Microseconds()) / 1e3,
		"incrementalMillis": float64(inc.Microseconds()) / 1e3,
		"speedupX":          speedup,
		"derivedMillis":     float64(folded.Timings().Derived.Microseconds()) / 1e3,
	})
	if speedup < 5 {
		return fmt.Errorf("E17: index-reusing fold speedup %.1f× below the 5× bar", speedup)
	}
	return nil
}

// foldIdentical compares the rebuilt and folded systems query-by-query
// across the three analysis services plus system stats.
func foldIdentical(full, fold *core.System) error {
	if a, b := full.Stats(), fold.Stats(); a != b {
		return fmt.Errorf("stats diverge: full %+v, fold %+v", a, b)
	}
	for _, q := range [][]string{{"mining", "data"}, {"learning"}, {"systems", "query"}} {
		for _, useSamples := range []bool{false, true} {
			ra, err1 := full.DiscoverInfluencers(q, core.DiscoverOptions{K: 8, UseSamples: useSamples})
			rb, err2 := fold.DiscoverInfluencers(q, core.DiscoverOptions{K: 8, UseSamples: useSamples})
			if err1 != nil || err2 != nil {
				return fmt.Errorf("query %v: %v %v", q, err1, err2)
			}
			if !reflect.DeepEqual(ra, rb) {
				return fmt.Errorf("query %v (samples=%v) diverges", q, useSamples)
			}
		}
	}
	n := full.Graph().NumNodes()
	for u := 0; u < n; u += n/7 + 1 {
		ka, err1 := full.RankUserKeywords(graph.NodeID(u), 5)
		kb, err2 := fold.RankUserKeywords(graph.NodeID(u), 5)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("keywords of %d: %v %v", u, err1, err2)
		}
		if !reflect.DeepEqual(ka, kb) {
			return fmt.Errorf("keyword ranks of %d diverge", u)
		}
		pa, err1 := full.InfluencePaths(graph.NodeID(u), core.PathOptions{Theta: 0.01, MaxNodes: 60})
		pb, err2 := fold.InfluencePaths(graph.NodeID(u), core.PathOptions{Theta: 0.01, MaxNodes: 60})
		if err1 != nil || err2 != nil {
			return fmt.Errorf("paths of %d: %v %v", u, err1, err2)
		}
		if !reflect.DeepEqual(pa, pb) {
			return fmt.Errorf("paths of %d diverge", u)
		}
	}
	return nil
}
