package ris

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/obs"
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
	seeds, spreads, _ := col.SelectSeeds(1)
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Fatalf("seeds = %v, want [0]", seeds)
	}
	sim := tic.NewSimulator(m)
	mc := sim.EstimateSpread([]graph.NodeID{0}, gamma, 20000, rng.New(2))
	if est := spreads[0]; math.Abs(est-mc) > 0.6 {
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
	if got := float64(len(col.nodes)) / float64(len(col.off)-1); math.Abs(got-want) > 0.25 {
		t.Fatalf("mean RR-set size=%v, want ~%v", got, want)
	}
}

func TestSelectSeedsPrefersHub(t *testing.T) {
	m, _ := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 5000, rng.New(4))
	seeds, _, spread := col.SelectSeeds(1)
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
	if s, _, _ := col.SelectSeeds(0); s != nil {
		t.Fatalf("k=0 seeds = %v", s)
	}
	seeds, _, _ := col.SelectSeeds(1000)
	// Greedy stops when every set is covered; never more than n seeds.
	if len(seeds) > col.scale {
		t.Fatalf("too many seeds: %d", len(seeds))
	}
}

// TestEstimateSpreadMonotone: the seed set's spread estimate never
// falls as k grows, and a smaller k picks a prefix of a larger k's
// seeds with the same per-seed spreads.
func TestEstimateSpreadMonotone(t *testing.T) {
	m, _ := hubGraph(t)
	col := generateAll(m, topic.Dist{1}, 3000, rng.New(6))
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k1 := 1 + r.Intn(5)
		k2 := k1 + 1 + r.Intn(5)
		s1, p1, t1 := col.SelectSeeds(k1)
		s2, p2, t2 := col.SelectSeeds(k2)
		return slices.Equal(s1, s2[:len(s1)]) && slices.Equal(p1, p2[:len(p1)]) && t2 >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroProbsGiveSingletonSets(t *testing.T) {
	_, g := hubGraph(t)
	m := tic.NewBuilder(g, 1).Build()
	col := generateAll(m, topic.Dist{1}, 500, rng.New(7))
	for i := range len(col.off) - 1 {
		if size := col.off[i+1] - col.off[i]; size != 1 {
			t.Fatalf("zero-prob RR set has %d nodes", size)
		}
	}
	// Singleton spread should be ~1 for any node.
	_, spreads, _ := col.SelectSeeds(40)
	for i, got := range spreads {
		if got > 3 {
			t.Fatalf("spread of seed %d under zero probs = %v", i, got)
		}
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
	seeds, _, spread := col.SelectSeeds(2)

	ref := asOracle(col)
	best := 0.0
	for a := 0; a < 6; a++ {
		for bb := a + 1; bb < 6; bb++ {
			s := ref.EstimateSpread([]graph.NodeID{int32(a), int32(bb)})
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
	if col.scale != len(targets) {
		t.Fatalf("target universe = %d", col.scale)
	}
	// Seed selection restricted to targets' influencers finds the hub,
	// and σ_T({0}) = expected #targets activated by 0 = 20·0.9 = 18.
	seeds, spreads, _ := col.SelectSeeds(1)
	if seeds[0] != 0 {
		t.Fatalf("targeted seed = %v", seeds)
	}
	if got := spreads[0]; math.Abs(got-18) > 0.5 {
		t.Fatalf("targeted spread = %v, want ~18", got)
	}
	// A node outside the hub's reach activates only itself if targeted.
	got21 := asOracle(col).EstimateSpread([]graph.NodeID{21})
	if got21 > 0.5 {
		t.Fatalf("non-influencer targeted spread = %v", got21)
	}
}

func TestGenerateTargetedEmpty(t *testing.T) {
	m, _ := hubGraph(t)
	col := GenerateTargeted(m, topic.Dist{1}, nil, 100, rng.New(1), nil)
	if len(col.nodes) != 0 || col.scale != 0 {
		t.Fatalf("empty targets produced %d nodes", len(col.nodes))
	}
	if seeds, spreads, total := col.SelectSeeds(3); seeds != nil || spreads != nil || total != 0 {
		t.Fatalf("empty targets selected %v %v %v", seeds, spreads, total)
	}
}

// TestMatchesOracle compares the flat table with the list-of-sets
// implementation it replaced, on random graphs, topic mixes, audiences
// (empty and with repeats), k (past n too) and sample counts: the same
// sets, seeds, spread bits — each seed's spread against the oracle's
// singleton EstimateSpread — and sampling counters.
func TestMatchesOracle(t *testing.T) {
	r := rng.New(60)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(60)
		z := 1 + r.Intn(3)
		b := graph.NewBuilder(n)
		for e := r.Intn(5 * n); e > 0; e-- {
			b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
		g := b.Build()
		mb := tic.NewBuilder(g, z)
		hi := r.Float64()
		for e := 0; e < g.NumEdges(); e++ {
			for zi := 0; zi < z; zi++ {
				if err := mb.SetProb(graph.EdgeID(e), zi, hi*r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := mb.Build()
		gamma := make(topic.Dist, z)
		for zi := range gamma {
			gamma[zi] = r.Float64()
		}
		gamma = gamma.Normalize()
		var targets []graph.NodeID
		if r.Intn(10) > 0 {
			targets = make([]graph.NodeID, 1+r.Intn(2*n))
			for i := range targets {
				targets[i] = graph.NodeID(r.Intn(n))
			}
		}
		count, k, seed := r.Intn(3000), r.Intn(n+4), r.Uint64()

		var wantCost, gotCost obs.Cost
		want := oracleGenerate(m, gamma, targets, count, rng.New(seed), &wantCost)
		col := GenerateTargeted(m, gamma, targets, count, rng.New(seed), &gotCost)
		if gotCost != wantCost {
			t.Fatalf("trial %d: cost %+v, want %+v", trial, gotCost.RIS, wantCost.RIS)
		}
		got := asOracle(col)
		if len(got.sets) != len(want.sets) || got.n != want.n || got.scale != want.scale {
			t.Fatalf("trial %d: %d sets over (%d, %d), want %d over (%d, %d)",
				trial, len(got.sets), got.n, got.scale, len(want.sets), want.n, want.scale)
		}
		for i := range want.sets {
			if !slices.Equal(got.sets[i], want.sets[i]) {
				t.Fatalf("trial %d: set %d = %v, want %v", trial, i, got.sets[i], want.sets[i])
			}
		}
		seeds, spreads, total := col.SelectSeeds(k)
		wantSeeds, wantTotal := want.SelectSeeds(k)
		if !slices.Equal(seeds, wantSeeds) || math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("trial %d (k=%d): seeds %v total %v, want %v total %v",
				trial, k, seeds, total, wantSeeds, wantTotal)
		}
		if len(spreads) != len(seeds) {
			t.Fatalf("trial %d: %d spreads for %d seeds", trial, len(spreads), len(seeds))
		}
		for i, u := range seeds {
			if w := want.EstimateSpread([]graph.NodeID{u}); math.Float64bits(spreads[i]) != math.Float64bits(w) {
				t.Fatalf("trial %d: seed %d spread %v, want %v", trial, u, spreads[i], w)
			}
		}
	}
}

// asOracle copies c's table into the oracle's list of sets.
func asOracle(c *Collection) *oracleCollection {
	o := &oracleCollection{n: c.n, scale: c.scale}
	for i := 0; i+1 < len(c.off); i++ {
		o.sets = append(o.sets, c.nodes[c.off[i]:c.off[i+1]])
	}
	return o
}

// The reference implementation: one []graph.NodeID per RR set, grown by
// a reusable reverse-BFS sampler and copied out, an inverted index of
// per-node set lists, and spread estimates by a pass over every set.

type oracleCollection struct {
	n, scale int
	sets     [][]graph.NodeID
}

type oracleSampler struct {
	g     *graph.Graph
	stamp []uint32
	epoch uint32
	queue []graph.NodeID
	cost  *obs.Cost
}

func (s *oracleSampler) sampleRR(root graph.NodeID, prob func(graph.EdgeID) float64, r *rng.Source) []graph.NodeID {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	q := s.queue[:0]
	s.stamp[root] = s.epoch
	q = append(q, root)
	var edges uint64
	for i := 0; i < len(q); i++ {
		v := q[i]
		lo, hi := s.g.InSlots(v)
		edges += uint64(hi - lo)
		for slot := lo; slot < hi; slot++ {
			u := s.g.InSrc(slot)
			if s.stamp[u] == s.epoch {
				continue
			}
			if r.Float64() < prob(s.g.InEdgeID(slot)) {
				s.stamp[u] = s.epoch
				q = append(q, u)
			}
		}
	}
	s.queue = q
	if s.cost != nil {
		s.cost.RIS.Samples++
		s.cost.RIS.Nodes += uint64(len(q))
		s.cost.RIS.Edges += edges
	}
	out := make([]graph.NodeID, len(q))
	copy(out, q)
	return out
}

func oracleGenerate(m *tic.Model, gamma topic.Dist, targets []graph.NodeID,
	count int, r *rng.Source, cost *obs.Cost) *oracleCollection {

	if len(targets) == 0 {
		return &oracleCollection{n: 0, scale: 0}
	}
	g := m.Graph()
	s := &oracleSampler{g: g, stamp: make([]uint32, g.NumNodes()), cost: cost}
	prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
	c := &oracleCollection{n: g.NumNodes(), scale: len(targets), sets: make([][]graph.NodeID, 0, count)}
	for i := 0; i < count; i++ {
		root := targets[r.Intn(len(targets))]
		c.sets = append(c.sets, s.sampleRR(root, prob, r))
	}
	return c
}

func (c *oracleCollection) EstimateSpread(seeds []graph.NodeID) float64 {
	if len(c.sets) == 0 {
		return 0
	}
	inSeed := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inSeed[s] = true
	}
	covered := 0
	for _, set := range c.sets {
		for _, v := range set {
			if inSeed[v] {
				covered++
				break
			}
		}
	}
	return float64(c.scale) * float64(covered) / float64(len(c.sets))
}

func (c *oracleCollection) SelectSeeds(k int) ([]graph.NodeID, float64) {
	if k <= 0 || len(c.sets) == 0 {
		return nil, 0
	}
	k = min(k, c.n)
	index := make([][]int32, c.n)
	for si, set := range c.sets {
		for _, v := range set {
			index[v] = append(index[v], int32(si))
		}
	}
	deg := make([]int32, c.n)
	for v := range index {
		deg[v] = int32(len(index[v]))
	}
	coveredSet := make([]bool, len(c.sets))
	seeds := make([]graph.NodeID, 0, k)
	covered := 0
	for len(seeds) < k {
		best := graph.NodeID(-1)
		var bestDeg int32 = -1
		for v := 0; v < c.n; v++ {
			if deg[v] > bestDeg {
				bestDeg = deg[v]
				best = graph.NodeID(v)
			}
		}
		if best < 0 || bestDeg <= 0 {
			break
		}
		seeds = append(seeds, best)
		for _, si := range index[best] {
			if coveredSet[si] {
				continue
			}
			coveredSet[si] = true
			covered++
			for _, u := range c.sets[si] {
				deg[u]--
			}
		}
		deg[best] = -1
	}
	spread := float64(c.scale) * float64(covered) / float64(len(c.sets))
	return seeds, spread
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
