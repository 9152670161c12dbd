package ris

import (
	"math"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// hubGraph: node 0 points to 1..20 with p=0.9; nodes 21..39 isolated-ish.
func hubGraph(t testing.TB) (*tic.Model, *graph.Graph) {
	b := graph.NewBuilder(40)
	for v := int32(1); v <= 20; v++ {
		b.AddEdge(0, v)
	}
	for v := int32(21); v < 39; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	mb := tic.NewBuilder(g, 1)
	for e := 0; e < g.NumEdges(); e++ {
		p := 0.9
		if src := g.Src(graph.EdgeID(e)); src >= 21 {
			p = 0.05
		}
		if err := mb.SetProb(graph.EdgeID(e), 0, p); err != nil {
			t.Fatal(err)
		}
	}
	return mb.Build(), g
}

// generateAll draws count RR sets rooted uniformly over every node: the
// untargeted RIS estimator of σ.
func generateAll(m *tic.Model, gamma topic.Dist, count int, r *rng.Source) *Collection {
	all := make([]graph.NodeID, m.Graph().NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	return GenerateTargeted(m, gamma, all, count, r, nil)
}

func TestRISEstimateMatchesMC(t *testing.T) {
	m, _ := hubGraph(t)
	gamma := topic.Dist{1}
	col := generateAll(m, gamma, 30000, rng.New(1))
	est := col.EstimateSpread([]graph.NodeID{0})
	sim := tic.NewSimulator(m)
	mc := sim.EstimateSpread([]graph.NodeID{0}, gamma, 20000, rng.New(2))
	if math.Abs(est-mc) > 0.6 {
		t.Fatalf("RIS=%v MC=%v diverge", est, mc)
	}
}

func TestRISSingletonAvgSize(t *testing.T) {
	m, g := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 20000, rng.New(3))
	// E[RR size] = average singleton spread = (1/n)Σ_u σ({u}).
	sim := tic.NewSimulator(m)
	total := 0.0
	for u := 0; u < g.NumNodes(); u++ {
		total += sim.EstimateSpread([]graph.NodeID{int32(u)}, topic.Dist{1}, 400, rng.New(uint64(u)+10))
	}
	want := total / float64(g.NumNodes())
	size := 0
	for _, s := range col.sets {
		size += len(s)
	}
	if got := float64(size) / float64(len(col.sets)); math.Abs(got-want) > 0.25 {
		t.Fatalf("mean RR-set size=%v, want ~%v", got, want)
	}
}

func TestSelectSeedsPrefersHub(t *testing.T) {
	m, _ := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 5000, rng.New(4))
	seeds, spread := col.SelectSeeds(1)
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", seeds)
	}
	if spread < 10 {
		t.Fatalf("spread = %v, want > 10", spread)
	}
}

func TestSelectSeedsZeroAndOverflow(t *testing.T) {
	m, _ := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 100, rng.New(5))
	if s, _ := col.SelectSeeds(0); s != nil {
		t.Fatalf("k=0 seeds = %v", s)
	}
	seeds, _ := col.SelectSeeds(1000)
	// Greedy stops when every set is covered; never more than n seeds.
	if len(seeds) > col.NumNodes() {
		t.Fatalf("too many seeds: %d", len(seeds))
	}
}

func TestEstimateSpreadMonotone(t *testing.T) {
	m, _ := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 3000, rng.New(6))
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k1 := 1 + r.Intn(5)
		base := make([]graph.NodeID, 0, k1+2)
		for i := 0; i < k1; i++ {
			base = append(base, graph.NodeID(r.Intn(40)))
		}
		bigger := append(append([]graph.NodeID(nil), base...), graph.NodeID(r.Intn(40)))
		return col.EstimateSpread(bigger) >= col.EstimateSpread(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroProbsGiveSingletonSets(t *testing.T) {
	_, g := hubGraph(t)
	m := tic.NewBuilder(g, 1).Build()
	col := generateAll(m, topic.Dist{1}, 500, rng.New(7))
	for i := range col.sets {
		if len(col.Set(i)) != 1 {
			t.Fatalf("zero-prob RR set has %d nodes", len(col.Set(i)))
		}
	}
	// Singleton spread should be ~1 for any node.
	if got := col.EstimateSpread([]graph.NodeID{0}); got > 3 {
		t.Fatalf("spread under zero probs = %v", got)
	}
}

func TestGreedyMatchesExhaustiveTiny(t *testing.T) {
	// 6-node graph, exhaustive k=2 optimum vs greedy on same collection.
	b := graph.NewBuilder(6)
	edges := [][2]int32{{0, 1}, {0, 2}, {3, 4}, {3, 5}, {1, 2}, {4, 5}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	mb := tic.NewBuilder(g, 1)
	for e := 0; e < g.NumEdges(); e++ {
		_ = mb.SetProb(graph.EdgeID(e), 0, 0.8)
	}
	m := mb.Build()
	col := generateAll(m, topic.Dist{1}, 20000, rng.New(8))
	seeds, spread := col.SelectSeeds(2)

	best := 0.0
	for a := 0; a < 6; a++ {
		for bb := a + 1; bb < 6; bb++ {
			s := col.EstimateSpread([]graph.NodeID{int32(a), int32(bb)})
			if s > best {
				best = s
			}
		}
	}
	if spread < best*0.95 {
		t.Fatalf("greedy=%v exhaustive=%v (seeds=%v)", spread, best, seeds)
	}
}

func TestGenerateTargeted(t *testing.T) {
	m, _ := hubGraph(t)
	gamma := topic.Dist{1}
	// Targets: the leaves 1..20 of the hub. Node 0 covers all targeted
	// RR sets whose root it reaches.
	targets := make([]graph.NodeID, 0, 20)
	for v := int32(1); v <= 20; v++ {
		targets = append(targets, v)
	}
	col := GenerateTargeted(m, gamma, targets, 20000, rng.New(3), nil)
	if col.NumNodes() != len(targets) {
		t.Fatalf("target universe = %d", col.NumNodes())
	}
	// σ_T({0}) = expected #targets activated by 0 = 20·0.9 = 18.
	got := col.EstimateSpread([]graph.NodeID{0})
	if math.Abs(got-18) > 0.5 {
		t.Fatalf("targeted spread = %v, want ~18", got)
	}
	// A node outside the hub's reach activates only itself if targeted.
	got21 := col.EstimateSpread([]graph.NodeID{21})
	if got21 > 0.5 {
		t.Fatalf("non-influencer targeted spread = %v", got21)
	}
	// Seed selection restricted to targets' influencers finds the hub.
	seeds, _ := col.SelectSeeds(1)
	if seeds[0] != 0 {
		t.Fatalf("targeted seed = %v", seeds)
	}
}

func TestGenerateTargetedEmpty(t *testing.T) {
	m, _ := hubGraph(t)
	col := GenerateTargeted(m, topic.Dist{1}, nil, 100, rng.New(1), nil)
	if len(col.sets) != 0 || col.NumNodes() != 0 {
		t.Fatalf("empty targets produced %d sets", len(col.sets))
	}
}

func BenchmarkGenerateRR(b *testing.B) {
	r := rng.New(1)
	gb := graph.NewBuilder(20000)
	for i := 0; i < 100000; i++ {
		gb.AddEdge(int32(r.Intn(20000)), int32(r.Intn(20000)))
	}
	g := gb.Build()
	mb := tic.NewBuilder(g, 4)
	for e := 0; e < g.NumEdges(); e++ {
		_ = mb.SetProb(graph.EdgeID(e), r.Intn(4), 0.1)
	}
	m := mb.Build()
	gamma := topic.Uniform(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := generateAll(m, gamma, 100, rng.New(uint64(i)))
		_ = col
	}
}

func BenchmarkSelectSeeds(b *testing.B) {
	m, _ := hubGraph(b)
	col := generateAll(m, topic.Dist{1}, 20000, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.SelectSeeds(5)
	}
}
