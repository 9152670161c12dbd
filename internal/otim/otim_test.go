package otim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// testWorld builds a random 2-topic model with topic-specialized edges:
// roughly half the edges are strong in topic 0, half in topic 1.
func testWorld(t testing.TB, n, deg int, seed uint64) *tic.Model {
	r := rng.New(seed)
	gb := graph.NewBuilder(n)
	for i := 0; i < n*deg; i++ {
		gb.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := gb.Build()
	mb := tic.NewBuilder(g, 2)
	for e := 0; e < g.NumEdges(); e++ {
		if r.Bool() {
			_ = mb.SetProbs(graph.EdgeID(e), []float64{0.2 + 0.4*r.Float64(), 0.02 * r.Float64()})
		} else {
			_ = mb.SetProbs(graph.EdgeID(e), []float64{0.02 * r.Float64(), 0.2 + 0.4*r.Float64()})
		}
	}
	return mb.Build()
}

func buildIdx(t testing.TB, m *tic.Model) *Index {
	ix, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexSigmaMaxDominatesGammaSpread(t *testing.T) {
	m := testWorld(t, 100, 4, 1)
	ix := buildIdx(t, m)
	calc := mia.NewCalc(m.Graph())
	gammas := []topic.Dist{{1, 0}, {0, 1}, {0.5, 0.5}, {0.9, 0.1}}
	for _, gamma := range gammas {
		prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
		for u := 0; u < 100; u += 7 {
			s := calc.MIOA(prob, graph.NodeID(u), 0.001, 0).Spread()
			if s > ix.SigmaMax(graph.NodeID(u))+1e-9 {
				t.Fatalf("σ̄max(%d)=%v < σ_γ=%v for γ=%v", u, ix.SigmaMax(graph.NodeID(u)), s, gamma)
			}
		}
	}
}

// The central soundness property: every bound tier dominates the exact
// MIA spread, and the tiers are ordered UB_P ≥ UB_L ≥ σ.
func TestQuickBoundSoundnessAndOrdering(t *testing.T) {
	m := testWorld(t, 80, 4, 2)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	calc := mia.NewCalc(m.Graph())
	z := m.NumTopics()
	g := m.Graph()

	f := func(seed uint64) bool {
		r := rng.New(seed)
		gamma := topic.Dist(r.DirichletSym(0.5, z))
		u := int32(r.Intn(g.NumNodes()))
		theta := 0.001 * (1 + 9*r.Float64()) // θ ∈ [θpre, 10·θpre]

		prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
		exact := calc.MIOA(prob, u, theta, 0).Spread()

		// UB_P
		var bp float64
		for zi := 0; zi < z; zi++ {
			bp += gamma[zi] * ix.aggr[int(u)*z+zi]
		}
		ubP := 1 + bp
		// UB_L
		eng.begin(gamma) // fresh memo generation, calc weighed under γ
		ubL := eng.localBound(u)

		const tol = 1e-9
		return ubP+tol >= ubL && ubL+tol >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// exhaustiveGreedy is the reference the engine's pruning must match:
// the straw-man of Section I, which materialises every edge probability
// for the query and then runs MIA greedy with an exact evaluation of
// every user per round and no bounds. It returns the seeds and the MIA
// spread of each seed prefix.
func exhaustiveGreedy(m *tic.Model, gamma topic.Dist, k int, theta float64) ([]graph.NodeID, []float64) {
	w := m.Weights(gamma)
	g := m.Graph()
	prob := func(e graph.EdgeID) float64 { return w[e] }
	calc := mia.NewCalc(g)
	cover := mia.NewCover(g.NumNodes())
	chosen := make([]bool, g.NumNodes())
	var seeds []graph.NodeID
	var spreads []float64
	for len(seeds) < k {
		var best graph.NodeID = -1
		bestGain := -1.0
		var bestTree *mia.Tree
		for u := 0; u < g.NumNodes(); u++ {
			if chosen[u] {
				continue
			}
			tree := calc.MIOA(prob, graph.NodeID(u), theta, 0)
			if gain := cover.Gain(tree.Nodes); gain > bestGain {
				best, bestGain, bestTree = graph.NodeID(u), gain, tree
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		cover.Add(bestTree.Nodes)
		seeds = append(seeds, best)
		spreads = append(spreads, cover.Spread())
	}
	return seeds, spreads
}

func TestQueryMatchesExhaustiveGreedy(t *testing.T) {
	m := testWorld(t, 120, 4, 3)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	for _, gamma := range []topic.Dist{{1, 0}, {0.3, 0.7}} {
		res, err := eng.Query(gamma, QueryOptions{K: 5, Theta: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		naiveSeeds, naiveSpreads := exhaustiveGreedy(m, gamma, 5, 0.01)
		if len(res.Seeds) != 5 {
			t.Fatalf("engine returned %d seeds", len(res.Seeds))
		}
		// Identical greedy semantics must give identical spreads
		// (seed sets may differ only on exact ties).
		for i := range res.Spreads {
			if math.Abs(res.Spreads[i]-naiveSpreads[i]) > 1e-6 {
				t.Fatalf("γ=%v prefix %d: engine σ=%v naive σ=%v (seeds %v vs %v)",
					gamma, i, res.Spreads[i], naiveSpreads[i], res.Seeds, naiveSeeds)
			}
		}
	}
}

func TestQueryPrunesMostUsers(t *testing.T) {
	m := testWorld(t, 400, 4, 4)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	res, err := eng.Query(topic.Dist{0.8, 0.2}, QueryOptions{K: 5, Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactEvals >= 400 {
		t.Fatalf("best-effort did not prune: %d exact evals on 400 users", res.Stats.ExactEvals)
	}
	if res.Stats.Pruned <= 0 {
		t.Fatalf("pruned = %d", res.Stats.Pruned)
	}
	t.Logf("stats: %+v", res.Stats)
}

func TestQuerySpreadsNondecreasing(t *testing.T) {
	m := testWorld(t, 150, 4, 5)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	res, err := eng.Query(topic.Dist{0.5, 0.5}, QueryOptions{K: 8, Theta: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Spreads); i++ {
		if res.Spreads[i] < res.Spreads[i-1]-1e-9 {
			t.Fatalf("spreads decreased: %v", res.Spreads)
		}
	}
	// No duplicate seeds.
	seen := map[graph.NodeID]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}

func TestEpsilonApproxQuality(t *testing.T) {
	m := testWorld(t, 200, 4, 6)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	exact, err := eng.Query(topic.Dist{0.6, 0.4}, QueryOptions{K: 5, Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := eng.Query(topic.Dist{0.6, 0.4}, QueryOptions{K: 5, Theta: 0.01, Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	finalExact := exact.Spreads[len(exact.Spreads)-1]
	finalApprox := approx.Spreads[len(approx.Spreads)-1]
	if finalApprox < 0.8*finalExact {
		t.Fatalf("ε-approx spread %v too far below exact %v", finalApprox, finalExact)
	}
	if approx.Stats.ExactEvals > exact.Stats.ExactEvals {
		t.Fatalf("ε-approx did more work: %d > %d", approx.Stats.ExactEvals, exact.Stats.ExactEvals)
	}
}

func TestSkipLocalBoundStillCorrect(t *testing.T) {
	m := testWorld(t, 100, 4, 7)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	gamma := topic.Dist{0.5, 0.5}
	with, err := eng.Query(gamma, QueryOptions{K: 4, Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	without, err := eng.Query(gamma, QueryOptions{K: 4, Theta: 0.01, SkipLocalBound: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range with.Spreads {
		if math.Abs(with.Spreads[i]-without.Spreads[i]) > 1e-6 {
			t.Fatalf("bound config changed greedy answer: %v vs %v", with.Spreads, without.Spreads)
		}
	}
	if without.Stats.LocalBounds != 0 {
		t.Fatalf("SkipLocalBound evaluated %d local bounds", without.Stats.LocalBounds)
	}
	// The local tier should reduce exact evaluations.
	if with.Stats.ExactEvals > without.Stats.ExactEvals {
		t.Fatalf("local bound increased exact evals: %d vs %d",
			with.Stats.ExactEvals, without.Stats.ExactEvals)
	}
}

func TestEpsilonNoDuplicateSeeds(t *testing.T) {
	m := testWorld(t, 300, 5, 32)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	for _, eps := range []float64{0.05, 0.2, 0.5} {
		res, err := eng.Query(topic.Dist{0.4, 0.6}, QueryOptions{K: 12, Theta: 0.01, Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[graph.NodeID]bool{}
		for _, s := range res.Seeds {
			if seen[s] {
				t.Fatalf("ε=%v produced duplicate seed %d", eps, s)
			}
			seen[s] = true
		}
		for i := 1; i < len(res.Spreads); i++ {
			if res.Spreads[i] < res.Spreads[i-1]-1e-9 {
				t.Fatalf("ε=%v spreads decreased: %v", eps, res.Spreads)
			}
		}
	}
}

func TestQueryKBeyondUsefulSeeds(t *testing.T) {
	// A graph where only a handful of nodes have outgoing influence:
	// requesting more seeds than productive candidates must still return
	// K seeds (padding with zero-gain users) or fewer without panicking.
	b := graph.NewBuilder(30)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	mb := tic.NewBuilder(g, 2)
	_ = mb.SetProbs(0, []float64{0.9, 0.9})
	_ = mb.SetProbs(1, []float64{0.9, 0.9})
	m := mb.Build()
	ix, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix)
	res, err := eng.Query(topic.Dist{0.5, 0.5}, QueryOptions{K: 10, Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) == 0 || len(res.Seeds) > 10 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
	// The two real influencers must come first.
	first2 := map[graph.NodeID]bool{res.Seeds[0]: true, res.Seeds[1]: true}
	if !first2[0] || !first2[2] {
		t.Fatalf("first seeds = %v, want {0,2}", res.Seeds[:2])
	}
}

func TestQueryValidation(t *testing.T) {
	m := testWorld(t, 50, 3, 11)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	cases := []QueryOptions{
		{K: 0},
		{K: 1, Theta: 2},
		{K: 1, Theta: -1},
		{K: 1, Theta: math.NaN()},
		{K: 1, Epsilon: 1},
		{K: 1, Epsilon: -0.1},
		{K: 1, Epsilon: math.NaN()},
		{K: 1, Theta: 0.0001}, // below θ_pre
	}
	for i, opt := range cases {
		if _, err := eng.Query(topic.Dist{1, 0}, opt); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := eng.Query(topic.Dist{1}, QueryOptions{K: 1}); err == nil {
		t.Fatal("wrong-dimension γ accepted")
	}
	if _, err := eng.Query(topic.Dist{0.5, 0.6}, QueryOptions{K: 1}); err == nil {
		t.Fatal("non-normalized γ accepted")
	}
}

func TestQueryContextCancel(t *testing.T) {
	m := testWorld(t, 200, 4, 12)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Query(topic.Dist{0.5, 0.5}, QueryOptions{K: 5, Theta: 0.01, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned a partial result with %d seeds", len(res.Seeds))
	}
}

func TestBuildIndexValidation(t *testing.T) {
	m := testWorld(t, 20, 3, 13)
	if _, err := BuildIndex(m, BuildOptions{ThetaPre: 1.5}); err == nil {
		t.Fatal("ThetaPre > 1 accepted")
	}
}

func TestQueryKeywords(t *testing.T) {
	m := testWorld(t, 80, 4, 14)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	km, err := topic.NewModel(
		[]string{"data", "mining", "social", "network"},
		[][]float64{{0.5, 0.5, 0, 0}, {0, 0, 0.5, 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A keyword query is γ inference through the keyword model, then Query.
	gamma, unknown := km.InferGamma([]string{"data", "mining"})
	if len(unknown) != 0 {
		t.Fatalf("keywords %v unknown", unknown)
	}
	res, err := eng.Query(gamma, QueryOptions{K: 3, Theta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if gamma[0] < 0.95 {
		t.Fatalf("γ = %v, want topic 0", gamma)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("seeds = %v", res.Seeds)
	}
}

func TestEngineReuse(t *testing.T) {
	m := testWorld(t, 100, 4, 16)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	var prev *Result
	for i := 0; i < 10; i++ {
		gamma := topic.Dist{float64(i) / 10, 1 - float64(i)/10}
		res, err := eng.Query(gamma, QueryOptions{K: 3, Theta: 0.01})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Seeds) != 3 {
			t.Fatalf("query %d returned %d seeds", i, len(res.Seeds))
		}
		prev = res
	}
	_ = prev
}

// A warm engine allocates only the answer itself: exact evaluation
// builds its trees into the recycled slab and reuses its memos, heap and
// cover, so the count is a constant however many trees a query builds
// (before, every tree cost several allocations of its own).
func TestQueryAllocationsConstant(t *testing.T) {
	m := testWorld(t, 400, 4, 40)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	gamma := topic.Dist{0.35, 0.65}
	opt := QueryOptions{K: 10, Theta: 0.01}
	res, err := eng.Query(gamma, opt) // warm: grow the slab once
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactEvals < 50 {
		t.Fatalf("only %d exact evaluations: the query does not exercise tree building", res.Stats.ExactEvals)
	}
	// The Result, its Seeds and its Spreads.
	const maxAllocs = 3
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Query(gamma, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("warm Query allocated %v times (%d exact evaluations), want ≤ %d",
			allocs, res.Stats.ExactEvals, maxAllocs)
	}
}

// TestEngineGenerationWrap forces the query generation to wrap. Every
// stamped memo (refinement marks, B_γ rows, edge probabilities, trees)
// still holds entries stamped 1 by the engine's first query under
// another γ; unless the wrap clears them they would pass as current for
// the query that runs right after it. Answers must equal a fresh
// engine's.
func TestEngineGenerationWrap(t *testing.T) {
	m := testWorld(t, 150, 4, 41)
	ix := buildIdx(t, m)
	queries := []struct {
		gamma topic.Dist
		opt   QueryOptions
	}{
		{topic.Dist{0.2, 0.8}, QueryOptions{K: 6, Theta: 0.01}},
		{topic.Dist{1, 0}, QueryOptions{K: 3, Theta: 0.01}},
	}
	eng := NewEngine(ix)
	if _, err := eng.Query(topic.Dist{0.9, 0.1}, QueryOptions{K: 6, Theta: 0.01}); err != nil {
		t.Fatal(err) // generation 1 under another γ
	}
	eng.curGen = math.MaxUint32
	for i, q := range queries {
		got, err := eng.Query(q.gamma, q.opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(ix).Query(q.gamma, q.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after the generation wrap:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// The tree slab is recycled per query: repeating a query never grows it
// past what the first run needed.
func TestSlabBoundedAcrossQueries(t *testing.T) {
	m := testWorld(t, 150, 4, 42)
	ix := buildIdx(t, m)
	eng := NewEngine(ix)
	opt := QueryOptions{K: 5, Theta: 0.01}
	if _, err := eng.Query(topic.Pure(0, 2), opt); err != nil {
		t.Fatal(err)
	}
	first := cap(eng.slab)
	for i := 0; i < 50; i++ {
		if _, err := eng.Query(topic.Pure(0, 2), opt); err != nil {
			t.Fatal(err)
		}
	}
	if cap(eng.slab) != first {
		t.Fatalf("slab grew from %d to %d over repeated queries", first, cap(eng.slab))
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	m := testWorld(b, 2000, 5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	m := testWorld(b, 5000, 5, 21)
	ix, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gamma := topic.Dist{0.3, 0.7}
		if _, err := eng.Query(gamma, QueryOptions{K: 10, Theta: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildIndexWorkerEquivalence is the parallel-build contract: both
// passes of BuildIndex — per-node MIOA spreads and per-topic aggregates —
// are bit-identical for every worker count.
func TestBuildIndexWorkerEquivalence(t *testing.T) {
	m := testWorld(t, 150, 4, 3)
	build := func(workers int) *Index {
		ix, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	base := build(1)
	for _, w := range []int{2, 3, 8} {
		ix := build(w)
		if !reflect.DeepEqual(base.sigmaMax, ix.sigmaMax) {
			t.Fatalf("workers=%d: sigmaMax differs", w)
		}
		if !reflect.DeepEqual(base.aggr, ix.aggr) {
			t.Fatalf("workers=%d: aggregates differ", w)
		}
	}
}
