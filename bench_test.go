// Benchmarks for the paper's scenarios and engine claims (E1–E3, E5,
// E7–E11) as testing.B targets: per-operation numbers with allocation
// profiles on one moderate 2 000-author world, so the suite completes
// quickly. The claims each experiment once asserted are ordinary tests in
// the packages (e.g. otim.TestQueryMatchesExhaustiveGreedy,
// TestQueryPrunesMostUsers); end-to-end serving and
// build timings are rows of the benchmark/ module (bash benchmark/bench.sh
// run).
package octopus_test

import (
	"sync"
	"testing"

	"octopus"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/em"
	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/otim"
	"octopus/internal/ris"
	"octopus/internal/rng"
	"octopus/internal/tags"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

var (
	benchOnce sync.Once
	benchDS   *datagen.Dataset
	benchSys  *core.System
	benchErr  error
)

// benchWorld builds one shared 2000-author citation system.
func benchWorld(b *testing.B) (*core.System, *datagen.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = datagen.Citation(datagen.CitationConfig{
			Authors: 2000, Topics: 8, Papers: 3000, Seed: 1,
		})
		if benchErr != nil {
			return
		}
		benchSys, benchErr = core.Build(benchDS.Graph, benchDS.Log, core.Config{
			GroundTruth:      benchDS.Truth,
			GroundTruthWords: benchDS.TruthWords,
			TopicNames:       benchDS.TopicNames,
			Seed:             2,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSys, benchDS
}

// E1 — Scenario 1: keyword-based influential user discovery, k=10.
func BenchmarkE1KeywordIM(b *testing.B) {
	sys, _ := benchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DiscoverInfluencers([]string{"mining", "pattern"},
			core.DiscoverOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — Scenario 2: personalized influential keyword suggestion, k=3.
func BenchmarkE2KeywordSuggest(b *testing.B) {
	sys, ds := benchWorld(b)
	var target graph.NodeID = -1
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		if len(sys.UserKeywords(graph.NodeID(u))) >= 4 {
			target = graph.NodeID(u)
			break
		}
	}
	if target < 0 {
		b.Skip("no keyword-rich user")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SuggestKeywords(target, 3, tags.SuggestOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E3 — Scenario 3: influential path exploration at θ=0.01.
func BenchmarkE3PathExploration(b *testing.B) {
	sys, ds := benchWorld(b)
	hub := hubNode(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.InfluencePaths(hub, octopus.PathOptions{Theta: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — bound configuration ablation, k=10.
func BenchmarkE5BoundPruning(b *testing.B) {
	sys, _ := benchWorld(b)
	gamma := topic.Dist(rng.New(11).DirichletSym(0.3, 8))
	eng := otim.NewEngine(sys.OTIMIndex())
	run := func(opt otim.QueryOptions) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(gamma, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("PrecompLocal", run(otim.QueryOptions{K: 10, Theta: 0.01}))
	b.Run("PrecompOnly", run(otim.QueryOptions{K: 10, Theta: 0.01, SkipLocalBound: true}))
	b.Run("Epsilon01", run(otim.QueryOptions{K: 10, Theta: 0.01, Epsilon: 0.1}))
}

// E7 — suggestion search strategies at equal candidate pools.
func BenchmarkE7SuggestQuality(b *testing.B) {
	sys, ds := benchWorld(b)
	sugg := tags.NewSuggester(sys.TagsIndex(), sys.Keywords(), nil)
	target := hubNode(ds)
	b.Run("Greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sugg.Suggest(target, tags.SuggestOptions{K: 2, MaxCandidates: 12}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sugg.Suggest(target, tags.SuggestOptions{
				K: 2, MaxCandidates: 12, Exhaustive: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8 — influencer index build and query.
func BenchmarkE8InfluencerIndex(b *testing.B) {
	_, ds := benchWorld(b)
	b.Run("Build1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tags.BuildIndex(ds.Truth, tags.IndexOptions{
				Polls: 1024, Seed: uint64(i),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ix, err := tags.BuildIndex(ds.Truth, tags.IndexOptions{Polls: 2048, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gamma := topic.Uniform(8)
	hub := hubNode(ds)
	b.Run("QueryIndexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.SpreadEstimate(hub, gamma, nil)
		}
	})
	sim := tic.NewSimulator(ds.Truth)
	b.Run("QueryMCScratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.EstimateSpread([]graph.NodeID{hub}, gamma, 2048, rng.New(uint64(i)))
		}
	})
}

// E9 — MIA tree construction across θ.
func BenchmarkE9MIATheta(b *testing.B) {
	_, ds := benchWorld(b)
	m := ds.Truth
	gamma := topic.Uniform(8)
	prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
	calc := mia.NewCalc(ds.Graph)
	hub := hubNode(ds)
	for _, tc := range []struct {
		name  string
		theta float64
	}{{"Theta0.1", 0.1}, {"Theta0.01", 0.01}, {"Theta0.001", 0.001}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree := calc.MIOA(prob, hub, tc.theta, 0)
				_ = tree
			}
		})
	}
}

// E10 — substrate throughput: cascades and RR sets.
func BenchmarkE10Scalability(b *testing.B) {
	_, ds := benchWorld(b)
	m := ds.Truth
	gamma := topic.Uniform(8)
	sim := tic.NewSimulator(m)
	r := rng.New(3)
	b.Run("Cascade", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Cascade([]graph.NodeID{graph.NodeID(i % ds.Graph.NumNodes())}, gamma, r, nil)
		}
	})
	all := make([]graph.NodeID, ds.Graph.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	b.Run("RRSet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ris.GenerateTargeted(m, gamma, all, 10, rng.New(uint64(i)), nil)
		}
	})
}

// E11 — EM learning on a small world.
func BenchmarkE11EMRecovery(b *testing.B) {
	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: 300, Topics: 4, Papers: 600, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Learn(ds.Graph, ds.Log, em.Config{
			Topics: 4, Iterations: 8, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func hubNode(ds *datagen.Dataset) graph.NodeID {
	var best graph.NodeID
	bestDeg := -1
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		if d := ds.Graph.OutDegree(graph.NodeID(u)); d > bestDeg {
			bestDeg, best = d, graph.NodeID(u)
		}
	}
	return best
}
