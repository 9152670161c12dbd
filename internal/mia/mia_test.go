package mia

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/heaps"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// diamond: 0->1 (0.8), 0->2 (0.5), 1->3 (0.5), 2->3 (0.9).
// Max path 0→3 goes via 2: 0.5*0.9 = 0.45 > 0.8*0.5 = 0.40.
func diamond(t testing.TB) (*graph.Graph, EdgeProb) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()
	probs := map[[2]graph.NodeID]float64{
		{0, 1}: 0.8, {0, 2}: 0.5, {1, 3}: 0.5, {2, 3}: 0.9,
	}
	ep := func(e graph.EdgeID) float64 {
		return probs[[2]graph.NodeID{g.Src(e), g.Dst(e)}]
	}
	return g, ep
}

func TestMIOAMaxPath(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	tree := c.MIOA(ep, 0, 0.01, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 4 {
		t.Fatalf("tree size = %d", tree.Size())
	}
	i3 := tree.Find(3)
	if i3 < 0 {
		t.Fatal("node 3 missing")
	}
	if got := tree.Nodes[i3].Prob; math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("ap(0→3) = %v, want 0.45 (via node 2)", got)
	}
	path := tree.Path(i3)
	if len(path) != 3 || path[0] != 0 || path[1] != 2 || path[2] != 3 {
		t.Fatalf("path = %v, want [0 2 3]", path)
	}
}

func TestMIOAThetaPrunes(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	tree := c.MIOA(ep, 0, 0.46, 0) // cuts node 3 (0.45)
	if tree.Find(3) >= 0 {
		t.Fatalf("theta failed to prune node 3: %+v", tree.Nodes)
	}
	if tree.Size() != 3 {
		t.Fatalf("size = %d, want 3", tree.Size())
	}
}

func TestMIOAMaxNodesCap(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	tree := c.MIOA(ep, 0, 0.01, 2)
	if tree.Size() != 2 {
		t.Fatalf("size = %d, want cap 2", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMIIAReverse(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	tree := c.MIIA(ep, 3, 0.01, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Forward {
		t.Fatal("MIIA marked forward")
	}
	i0 := tree.Find(0)
	if i0 < 0 {
		t.Fatal("node 0 missing from MIIA(3)")
	}
	if got := tree.Nodes[i0].Prob; math.Abs(got-0.45) > 1e-12 {
		t.Fatalf("ap(0→3) via MIIA = %v, want 0.45", got)
	}
}

func TestSpreadAndSubtreeWeights(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	tree := c.MIOA(ep, 0, 0.01, 0)
	want := 1 + 0.8 + 0.5 + 0.45
	if got := tree.Spread(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Spread = %v, want %v", got, want)
	}
	w := tree.SubtreeWeights()
	if math.Abs(w[0]-want) > 1e-12 {
		t.Fatalf("root subtree weight = %v, want total %v", w[0], want)
	}
	// Node 2's subtree contains itself (0.5) and node 3 (0.45).
	i2 := tree.Find(2)
	if math.Abs(w[i2]-0.95) > 1e-12 {
		t.Fatalf("subtree(2) = %v, want 0.95", w[i2])
	}
}

func TestCoverGainAndAdd(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	t0 := c.MIOA(ep, 0, 0.01, 0)
	cover := NewCover(g.NumNodes())
	gain0 := cover.Gain(t0.Nodes)
	if math.Abs(gain0-t0.Spread()) > 1e-12 {
		t.Fatalf("first gain = %v, want full spread %v", gain0, t0.Spread())
	}
	cover.Add(t0.Nodes)
	if math.Abs(cover.Spread()-t0.Spread()) > 1e-12 {
		t.Fatalf("cover spread = %v", cover.Spread())
	}
	// Adding the same tree again gains only the complement mass.
	gainAgain := cover.Gain(t0.Nodes)
	if gainAgain >= gain0 {
		t.Fatalf("repeat gain %v not diminished from %v", gainAgain, gain0)
	}
	// Submodularity corner: gain of a disjoint node's tree unchanged.
	t3 := c.MIOA(ep, 3, 0.01, 0)
	if got := cover.Gain(t3.Nodes); math.Abs(got-(1-cover.Prob(3))) > 1e-12 {
		t.Fatalf("gain(t3) = %v", got)
	}
}

func TestCalcReuseAcrossQueries(t *testing.T) {
	g, ep := diamond(t)
	c := NewCalc(g)
	for i := 0; i < 50; i++ {
		root := graph.NodeID(i % 4)
		tree := c.MIOA(ep, root, 0.01, 0)
		if err := tree.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if tree.Root != root {
			t.Fatalf("root mismatch")
		}
	}
}

func TestZeroThetaDefaulted(t *testing.T) {
	g, ep := diamond(t)
	tree := NewCalc(g).MIOA(ep, 0, 0, 0)
	if tree.Theta <= 0 {
		t.Fatalf("theta not defaulted: %v", tree.Theta)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: on random graphs, MIOA trees validate, probabilities are
// monotone along paths, and MIIA/MIOA agree on path probability.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		w := make([]float64, g.NumEdges())
		for e := range w {
			w[e] = 0.05 + 0.9*r.Float64()
		}
		ep := func(e graph.EdgeID) float64 { return w[e] }
		c := NewCalc(g)
		root := graph.NodeID(r.Intn(n))
		theta := 0.001 + 0.3*r.Float64()
		fwd := c.MIOA(ep, root, theta, 0)
		if fwd.Validate() != nil {
			return false
		}
		// Every non-root node's prob equals parent prob times edge prob.
		for i := 1; i < len(fwd.Nodes); i++ {
			nd := fwd.Nodes[i]
			want := fwd.Nodes[nd.Parent].Prob * ep(nd.Edge)
			if math.Abs(nd.Prob-want) > 1e-9 {
				return false
			}
		}
		// MIIA from a reached node recovers the same max path probability.
		if len(fwd.Nodes) > 1 {
			target := fwd.Nodes[len(fwd.Nodes)-1]
			rev := c.MIIA(ep, target.ID, theta, 0)
			j := rev.Find(root)
			if j < 0 {
				return false
			}
			if math.Abs(rev.Nodes[j].Prob-target.Prob) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: MIA singleton spread is a lower bound of (and correlated
// with) the true IC spread on trees, and never exceeds n.
func TestMIASpreadAgainstMCOnTree(t *testing.T) {
	// A perfect binary tree (each edge 0.6): MIA = IC exactly on trees.
	b := graph.NewBuilder(15)
	for i := int32(0); i < 7; i++ {
		b.AddEdge(i, 2*i+1)
		b.AddEdge(i, 2*i+2)
	}
	g := b.Build()
	mb := tic.NewBuilder(g, 1)
	for e := 0; e < g.NumEdges(); e++ {
		_ = mb.SetProb(graph.EdgeID(e), 0, 0.6)
	}
	m := mb.Build()
	ep := func(e graph.EdgeID) float64 { return m.EdgeProb(e, topic.Dist{1}) }
	tree := NewCalc(g).MIOA(ep, 0, 1e-9, 0)
	sim := tic.NewSimulator(m)
	mc := sim.EstimateSpread([]graph.NodeID{0}, topic.Dist{1}, 30000, rng.New(1))
	if math.Abs(tree.Spread()-mc) > 0.15 {
		t.Fatalf("MIA=%v MC=%v should coincide on a tree", tree.Spread(), mc)
	}
}

// indexedBuild is the pre-lazy-heap construction — an indexed heap with
// decrease-key holding each tentative node once — kept as the reference
// the lazy-deletion frontier must reproduce node for node.
func indexedBuild(g *graph.Graph, prob EdgeProb, root graph.NodeID, theta float64, maxNodes int, forward bool) []TreeNode {
	n := g.NumNodes()
	h := heaps.NewIndexed(n)
	best := make([]float64, n)
	parent := make([]graph.NodeID, n)
	pedge := make([]graph.EdgeID, n)
	seen := make([]bool, n)
	popAt := make([]int32, n)
	var nodes []TreeNode
	relax := func(u, v graph.NodeID, e graph.EdgeID, p float64) {
		if p < theta {
			return
		}
		if seen[v] {
			if _, inHeap := h.Key(v); !inHeap || p <= best[v] {
				return
			}
		}
		seen[v], best[v], parent[v], pedge[v] = true, p, u, e
		h.Update(v, p)
	}
	seen[root], best[root] = true, 1
	h.Push(root, 1)
	for h.Len() > 0 {
		u, p := h.PopMax()
		if p < theta {
			break
		}
		nd := TreeNode{ID: u, Parent: -1, Prob: p}
		if u != root {
			nd.Parent = popAt[parent[u]]
			nd.Edge = pedge[u]
			nd.Depth = nodes[nd.Parent].Depth + 1
		}
		popAt[u] = int32(len(nodes))
		nodes = append(nodes, nd)
		if maxNodes > 0 && len(nodes) >= maxNodes {
			break
		}
		if forward {
			lo, hi := g.OutEdges(u)
			for e := lo; e < hi; e++ {
				relax(u, g.Dst(e), e, p*prob(e))
			}
		} else {
			lo, hi := g.InSlots(u)
			for s := lo; s < hi; s++ {
				relax(u, g.InSrc(s), g.InEdgeID(s), p*prob(g.InEdgeID(s)))
			}
		}
	}
	return nodes
}

// randomWorld draws a random graph whose edge probabilities come from a
// handful of values, so equal path products — ties the frontier must
// break by node id — are common.
func randomWorld(seed uint64) (*graph.Graph, EdgeProb) {
	r := rng.New(seed)
	n := 5 + r.Intn(60)
	b := graph.NewBuilder(n)
	for i := 0; i < n*4; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := b.Build()
	levels := []float64{0.25, 0.5, 0.8, 1, 0.125 + 0.8*r.Float64()}
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = levels[r.Intn(len(levels))]
	}
	return g, func(e graph.EdgeID) float64 { return w[e] }
}

// Property: the lazy-deletion frontier builds exactly the trees of an
// indexed heap — same nodes, same order, same parents and bitwise-equal
// probabilities — in both directions, with and without a size cap, on
// one reused Calc.
func TestLazyFrontierMatchesIndexedHeap(t *testing.T) {
	f := func(seed uint64) bool {
		g, ep := randomWorld(seed)
		r := rng.New(seed ^ 0x9e37)
		c := NewCalc(g)
		for i := 0; i < 8; i++ {
			root := graph.NodeID(r.Intn(g.NumNodes()))
			theta := []float64{0.001, 0.01, 0.1, 0.3}[r.Intn(4)]
			maxNodes := []int{0, 0, 3, 10}[r.Intn(4)]
			fwd := c.MIOA(ep, root, theta, maxNodes)
			if !reflect.DeepEqual(fwd.Nodes, indexedBuild(g, ep, root, theta, maxNodes, true)) {
				t.Logf("seed %d: MIOA(%d, θ=%v, cap %d) differs", seed, root, theta, maxNodes)
				return false
			}
			rev := c.MIIA(ep, root, theta, maxNodes)
			if !reflect.DeepEqual(rev.Nodes, indexedBuild(g, ep, root, theta, maxNodes, false)) {
				t.Logf("seed %d: MIIA(%d, θ=%v, cap %d) differs", seed, root, theta, maxNodes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalcEpochWrap forces the build epoch to wrap: the tentative and
// finalized stamps left by earlier builds must be cleared, or a node
// finalized at epoch 1 long ago would look finalized again right after
// the wrap and drop out of the tree.
func TestCalcEpochWrap(t *testing.T) {
	g, ep := randomWorld(11)
	c := NewCalc(g)
	if c.MIOA(ep, 0, 0.01, 0).Size() < 3 { // epoch 1 stamps every node it reaches
		t.Fatal("test graph too sparse to exercise the stamps")
	}
	c.epoch = math.MaxUint32
	for root := graph.NodeID(0); root < 4; root++ {
		got := c.MIOA(ep, root, 0.01, 0)
		want := NewCalc(g).MIOA(ep, root, 0.01, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("root %d after epoch wrap: %d nodes, fresh Calc %d", root, got.Size(), want.Size())
		}
	}
}

// AppendMIOA appends the same nodes MIOA returns, with parents relative
// to the tree's own start, and allocates nothing into a grown slab.
func TestAppendMIOAIntoSlab(t *testing.T) {
	g, ep := randomWorld(5)
	c := NewCalc(g)
	c.Weigh(ep)
	slab := []TreeNode{{ID: 99}, {ID: 98}} // unrelated prefix
	for root := graph.NodeID(0); int(root) < g.NumNodes(); root++ {
		at := len(slab)
		slab = c.AppendMIOA(slab, root, 0.01, 0)
		if want := c.MIOA(ep, root, 0.01, 0).Nodes; !reflect.DeepEqual(slab[at:], want) {
			t.Fatalf("root %d: appended tree differs from MIOA", root)
		}
	}
	slab = slab[:0]
	allocs := testing.AllocsPerRun(20, func() {
		slab = c.AppendMIOA(slab[:0], 0, 0.01, 0)
	})
	if allocs != 0 {
		t.Fatalf("AppendMIOA into a grown slab allocated %v times per build", allocs)
	}
}

// relevel returns ep with every probability scaled by f ≤ 1: the same
// graph under a different weighting, so trees change shape.
func relevel(ep EdgeProb, f float64) EdgeProb {
	return func(e graph.EdgeID) float64 { return f * ep(e) }
}

// One Calc alternating two weightings through Weigh builds exactly the
// trees fresh Calcs build, in node order, parents and probability bits
// — and so does the indexed-heap reference — and OutWeights returns
// the current weighting's values.
func TestWeighAlternatesLikeFreshCalcs(t *testing.T) {
	f := func(seed uint64) bool {
		g, ep := randomWorld(seed)
		probs := []EdgeProb{ep, relevel(ep, 0.6)}
		r := rng.New(seed ^ 0x5bd1)
		c := NewCalc(g)
		var slab []TreeNode
		for i := 0; i < 6; i++ {
			prob := probs[i%2]
			c.Weigh(prob)
			for j := 0; j < 4; j++ {
				root := graph.NodeID(r.Intn(g.NumNodes()))
				theta := []float64{0.001, 0.01, 0.1}[r.Intn(3)]
				maxNodes := []int{0, 0, 5}[r.Intn(3)]
				slab = c.AppendMIOA(slab[:0], root, theta, maxNodes)
				if !reflect.DeepEqual(slab, NewCalc(g).MIOA(prob, root, theta, maxNodes).Nodes) ||
					!reflect.DeepEqual(slab, indexedBuild(g, prob, root, theta, maxNodes, true)) {
					t.Logf("seed %d: weighing %d, root %d: tree differs from a fresh build", seed, i, root)
					return false
				}
				lo, _ := g.OutEdges(root)
				for k, w := range c.OutWeights(root) {
					if w != prob(lo+graph.EdgeID(k)) {
						t.Logf("seed %d: weighing %d: OutWeights(%d)[%d] = %v", seed, i, root, k, w)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCalcWeightGenerationWrap forces the weight generation to wrap:
// rows filled under one weighting in generation 1 must be refilled
// after the wrap, or the next weighting's trees would read them.
func TestCalcWeightGenerationWrap(t *testing.T) {
	g, ep := randomWorld(11)
	other := relevel(ep, 0.5)
	c := NewCalc(g)
	c.Weigh(ep) // generation 1 fills every row its trees expand
	for root := graph.NodeID(0); int(root) < g.NumNodes(); root++ {
		c.AppendMIOA(nil, root, 0.001, 0)
	}
	c.wgen = math.MaxUint32
	c.Weigh(other)
	for root := graph.NodeID(0); root < 4; root++ {
		got := c.AppendMIOA(nil, root, 0.001, 0)
		want := NewCalc(g).MIOA(other, root, 0.001, 0).Nodes
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("root %d after the weight-generation wrap: %d nodes, fresh Calc %d", root, len(got), len(want))
		}
	}
}

// A reset cover is indistinguishable from a fresh one, bit for bit.
func TestCoverReset(t *testing.T) {
	g, ep := randomWorld(3)
	c := NewCalc(g)
	trees := make([][]TreeNode, 6)
	for i := range trees {
		trees[i] = c.MIOA(ep, graph.NodeID(i%g.NumNodes()), 0.01, 0).Nodes
	}
	reused := NewCover(g.NumNodes())
	for _, tr := range trees {
		reused.Add(tr)
	}
	reused.Reset()
	if reused.Spread() != 0 {
		t.Fatalf("spread after Reset = %v", reused.Spread())
	}
	fresh := NewCover(g.NumNodes())
	for _, tr := range trees {
		if a, b := reused.Gain(tr), fresh.Gain(tr); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("gain %v after Reset, %v fresh", a, b)
		}
		reused.Add(tr)
		fresh.Add(tr)
		if a, b := reused.Spread(), fresh.Spread(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("spread %v after Reset, %v fresh", a, b)
		}
	}
}

func BenchmarkMIOA(b *testing.B) {
	r := rng.New(1)
	const n = 20000
	gb := graph.NewBuilder(n)
	for i := 0; i < n*6; i++ {
		gb.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := gb.Build()
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = 0.01 + 0.2*r.Float64()
	}
	ep := func(e graph.EdgeID) float64 { return w[e] }
	b.Run("oneshot", func(b *testing.B) {
		c := NewCalc(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNodes = c.MIOA(ep, graph.NodeID(i%n), 0.01, 0).Nodes
		}
	})
	b.Run("weighed", func(b *testing.B) {
		c := NewCalc(g)
		c.Weigh(ep)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchNodes = c.AppendMIOA(benchNodes[:0], graph.NodeID(i%n), 0.01, 0)
		}
	})
}

var benchNodes []TreeNode
