package tic

import (
	"math"
	"testing"
	"testing/quick"

	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/topic"
)

// lineModel builds 0->1->2 with topic-dependent probabilities:
// edge (0,1): topic0 = 1.0, topic1 = 0.0
// edge (1,2): topic0 = 0.0, topic1 = 1.0
func lineModel(t *testing.T) *Model {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	mb := NewBuilder(g, 2)
	e01, _ := g.FindEdge(0, 1)
	e12, _ := g.FindEdge(1, 2)
	if err := mb.SetProbs(e01, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProbs(e12, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	return mb.Build()
}

func TestEdgeProbMixing(t *testing.T) {
	m := lineModel(t)
	e01, _ := m.Graph().FindEdge(0, 1)
	cases := []struct {
		gamma topic.Dist
		want  float64
	}{
		{topic.Dist{1, 0}, 1},
		{topic.Dist{0, 1}, 0},
		{topic.Dist{0.3, 0.7}, 0.3},
	}
	for _, c := range cases {
		if got := m.EdgeProb(e01, c.gamma); math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("EdgeProb(γ=%v) = %v, want %v", c.gamma, got, c.want)
		}
	}
}

func TestMaxProbEnvelope(t *testing.T) {
	m := lineModel(t)
	e01, _ := m.Graph().FindEdge(0, 1)
	e12, _ := m.Graph().FindEdge(1, 2)
	if m.MaxProb(e01) != 1 || m.MaxProb(e12) != 1 {
		t.Fatalf("MaxProb = %v, %v", m.MaxProb(e01), m.MaxProb(e12))
	}
}

func TestTopicProbAndIteration(t *testing.T) {
	m := lineModel(t)
	e01, _ := m.Graph().FindEdge(0, 1)
	if got := m.TopicProb(e01, 0); got != 1 {
		t.Fatalf("TopicProb(e01,0) = %v", got)
	}
	if got := m.TopicProb(e01, 1); got != 0 {
		t.Fatalf("TopicProb(e01,1) = %v", got)
	}
	count := 0
	m.EdgeTopics(e01, func(z int, p float64) {
		count++
		if z != 0 || p != 1 {
			t.Fatalf("EdgeTopics yielded z=%d p=%v", z, p)
		}
	})
	if count != 1 {
		t.Fatalf("EdgeTopics yielded %d entries (sparse zero dropped?)", count)
	}
}

func TestWeights(t *testing.T) {
	m := lineModel(t)
	w := m.Weights(topic.Dist{0.5, 0.5})
	if len(w) != 2 {
		t.Fatalf("weights len = %d", len(w))
	}
	for _, p := range w {
		if math.Abs(p-0.5) > 1e-6 {
			t.Fatalf("weights = %v", w)
		}
	}
	if m.MaxProb(0) != 1 || m.MaxProb(1) != 1 {
		t.Fatalf("max probs = %v, %v", m.MaxProb(0), m.MaxProb(1))
	}
}

func TestBuilderValidation(t *testing.T) {
	g := func() *graph.Graph {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1)
		return b.Build()
	}()
	mb := NewBuilder(g, 2)
	if err := mb.SetProb(0, 5, 0.5); err == nil {
		t.Fatal("topic out of range accepted")
	}
	if err := mb.SetProb(0, 0, 1.5); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := mb.SetProb(0, 0, math.NaN()); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := mb.SetProbs(0, []float64{0.1}); err == nil {
		t.Fatal("short prob vector accepted")
	}
	if err := mb.SetProb(1, 0, 0.5); err == nil {
		t.Fatal("edge out of range accepted")
	}
}

// The builder writes rows in ascending edge order: once edge 1 is set,
// edge 0's row is closed to both setters, and the rejected calls leave
// the model as it was.
func TestBuilderRejectsOutOfOrderEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	mb := NewBuilder(g, 2)
	if err := mb.SetProb(0, 0, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProb(1, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProb(0, 1, 0.4); err == nil {
		t.Fatal("SetProb on an earlier edge accepted")
	}
	if err := mb.SetProbs(0, []float64{0.5, 0.5}); err == nil {
		t.Fatal("SetProbs on an earlier edge accepted")
	}
	m := mb.Build()
	if m.TopicProb(0, 0) != float64(float32(0.2)) || m.TopicProb(0, 1) != 0 ||
		m.TopicProb(1, 1) != float64(float32(0.7)) {
		t.Fatalf("rows moved: e0 = %v,%v e1 = %v", m.TopicProb(0, 0), m.TopicProb(0, 1), m.TopicProb(1, 1))
	}
	if err := mb.SetProb(1, 0, 0.1); err == nil {
		t.Fatal("SetProb after Build accepted")
	}
}

func TestSetProbOverwrite(t *testing.T) {
	g := func() *graph.Graph {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1)
		return b.Build()
	}()
	mb := NewBuilder(g, 2)
	mustSet := func(z int, p float64) {
		t.Helper()
		if err := mb.SetProb(0, z, p); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, 0.3)
	mustSet(1, 0.5)
	mustSet(0, 0.8) // overwrite
	m := mb.Build()
	if got := m.TopicProb(0, 0); got != float64(float32(0.8)) {
		t.Fatalf("TopicProb after overwrite = %v", got)
	}
	// The overwrite keeps its entry position: topic 0 still comes first.
	var order []int
	m.EdgeTopics(0, func(z int, _ float64) { order = append(order, z) })
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("entry order after overwrite = %v, want [0 1]", order)
	}
}

// SetProbs replaces the open row: earlier entries of the edge go, and
// its zeros stay implicit.
func TestSetProbsReplacesRow(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	mb := NewBuilder(g, 3)
	if err := mb.SetProb(0, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProb(0, 0, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProbs(0, []float64{0, 0.3, 0.6}); err != nil {
		t.Fatal(err)
	}
	if err := mb.SetProbs(1, []float64{0.5, 0, 0}); err != nil {
		t.Fatal(err)
	}
	m := mb.Build()
	type ent struct {
		z int
		p float64
	}
	var row []ent
	m.EdgeTopics(0, func(z int, p float64) { row = append(row, ent{z, p}) })
	want := []ent{{1, float64(float32(0.3))}, {2, float64(float32(0.6))}}
	if len(row) != len(want) || row[0] != want[0] || row[1] != want[1] {
		t.Fatalf("edge 0 row = %v, want %v", row, want)
	}
	if m.MaxProb(0) != float64(float32(0.6)) || m.MaxProb(1) != 0.5 {
		t.Fatalf("maxP = %v, %v", m.MaxProb(0), m.MaxProb(1))
	}
}

// Building a model costs a fixed handful of allocations at a fixed
// density of entries per edge, however many edges there are — never
// one or more per edge.
func TestBuilderAllocsFlatInEdges(t *testing.T) {
	for _, n := range []int{1000, 64000} {
		gb := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			gb.AddEdge(int32(u), int32((u+1)%n))
		}
		g := gb.Build()
		allocs := testing.AllocsPerRun(3, func() {
			mb := NewBuilder(g, 4)
			for e := 0; e < g.NumEdges(); e++ {
				_ = mb.SetProb(graph.EdgeID(e), e%4, 0.5)
				_ = mb.SetProb(graph.EdgeID(e), (e+1)%4, 0.25)
			}
			mb.Build()
		})
		if allocs > 16 {
			t.Errorf("%d edges: building the model takes %.0f allocations, want at most 16", g.NumEdges(), allocs)
		}
	}
}

func TestCascadeDeterministicTopics(t *testing.T) {
	m := lineModel(t)
	sim := NewSimulator(m)
	r := rng.New(1)
	// Pure topic 0: edge 0->1 fires always, 1->2 never. Spread = 2.
	for i := 0; i < 20; i++ {
		if got := sim.Cascade([]graph.NodeID{0}, topic.Dist{1, 0}, r, nil); got != 2 {
			t.Fatalf("pure-topic-0 cascade = %d, want 2", got)
		}
	}
	// Pure topic 1: edge 0->1 never fires. Spread = 1.
	for i := 0; i < 20; i++ {
		if got := sim.Cascade([]graph.NodeID{0}, topic.Dist{0, 1}, r, nil); got != 1 {
			t.Fatalf("pure-topic-1 cascade = %d, want 1", got)
		}
	}
	// Seeding node 1 under topic 1 reaches 2.
	if got := sim.Cascade([]graph.NodeID{1}, topic.Dist{0, 1}, r, nil); got != 2 {
		t.Fatalf("seed-1 cascade = %d, want 2", got)
	}
}

func TestCascadeTrace(t *testing.T) {
	m := lineModel(t)
	sim := NewSimulator(m)
	r := rng.New(1)
	type act struct{ u, v graph.NodeID }
	var acts []act
	sim.Cascade([]graph.NodeID{0}, topic.Dist{1, 0}, r, func(u, v graph.NodeID, e graph.EdgeID) {
		acts = append(acts, act{u, v})
		if m.Graph().Dst(e) != v {
			t.Fatalf("trace edge mismatch")
		}
	})
	if len(acts) != 1 || acts[0] != (act{0, 1}) {
		t.Fatalf("trace = %v", acts)
	}
}

func TestCascadeDuplicateSeeds(t *testing.T) {
	m := lineModel(t)
	sim := NewSimulator(m)
	r := rng.New(2)
	if got := sim.Cascade([]graph.NodeID{0, 0, 0}, topic.Dist{0, 1}, r, nil); got != 1 {
		t.Fatalf("duplicate seeds counted: %d", got)
	}
}

func TestEstimateSpreadProbabilistic(t *testing.T) {
	// Star: 0 -> 1..10, each edge p=0.5 in topic 0.
	b := graph.NewBuilder(11)
	for v := int32(1); v <= 10; v++ {
		b.AddEdge(0, v)
	}
	g := b.Build()
	mb := NewBuilder(g, 1)
	for e := 0; e < g.NumEdges(); e++ {
		if err := mb.SetProb(graph.EdgeID(e), 0, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	m := mb.Build()
	sim := NewSimulator(m)
	got := sim.EstimateSpread([]graph.NodeID{0}, topic.Dist{1}, 20000, rng.New(7))
	want := 1 + 10*0.5
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("spread = %v, want ~%v", got, want)
	}
}

func TestEstimateSpreadZeroSamples(t *testing.T) {
	m := lineModel(t)
	sim := NewSimulator(m)
	if got := sim.EstimateSpread([]graph.NodeID{0}, topic.Dist{1, 0}, 0, rng.New(1)); got != 0 {
		t.Fatalf("zero samples spread = %v", got)
	}
}

func TestSimulatorEpochWrap(t *testing.T) {
	m := lineModel(t)
	sim := NewSimulator(m)
	sim.epoch = ^uint32(0) - 1
	r := rng.New(5)
	for i := 0; i < 4; i++ { // crosses the wrap point
		if got := sim.Cascade([]graph.NodeID{0}, topic.Dist{1, 0}, r, nil); got != 2 {
			t.Fatalf("cascade during wrap = %d", got)
		}
	}
}

// Property: spread is monotone in γ along the direction of an edge's
// strong topic — more weight on topic 0 can only help on a topic-0 graph.
func TestQuickSpreadMonotoneInGamma(t *testing.T) {
	b := graph.NewBuilder(30)
	r := rng.New(11)
	for i := 0; i < 90; i++ {
		b.AddEdge(int32(r.Intn(30)), int32(r.Intn(30)))
	}
	g := b.Build()
	mb := NewBuilder(g, 2)
	for e := 0; e < g.NumEdges(); e++ {
		// topic 0 always at least as strong as topic 1
		p1 := r.Float64() * 0.5
		p0 := p1 + r.Float64()*0.5
		if err := mb.SetProbs(graph.EdgeID(e), []float64{p0, p1}); err != nil {
			t.Fatal(err)
		}
	}
	m := mb.Build()
	sim := NewSimulator(m)
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		a := rr.Float64()
		bw := rr.Float64()
		lo, hi := a, bw
		if lo > hi {
			lo, hi = hi, lo
		}
		// γhi puts more mass on topic 0 than γlo.
		gLo := topic.Dist{lo, 1 - lo}
		gHi := topic.Dist{hi, 1 - hi}
		sLo := sim.EstimateSpread([]graph.NodeID{0}, gLo, 600, rng.New(seed^1))
		sHi := sim.EstimateSpread([]graph.NodeID{0}, gHi, 600, rng.New(seed^1))
		return sHi >= sLo-0.75 // MC noise tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: EdgeProb is within [0, MaxProb] for any γ.
func TestQuickEdgeProbBounds(t *testing.T) {
	b := graph.NewBuilder(10)
	r := rng.New(13)
	for i := 0; i < 40; i++ {
		b.AddEdge(int32(r.Intn(10)), int32(r.Intn(10)))
	}
	g := b.Build()
	const z = 5
	mb := NewBuilder(g, z)
	for e := 0; e < g.NumEdges(); e++ {
		for zi := 0; zi < z; zi++ {
			if err := mb.SetProb(graph.EdgeID(e), zi, r.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := mb.Build()
	f := func(seed uint64) bool {
		gamma := topic.Dist(rng.New(seed).DirichletSym(0.7, z))
		for e := 0; e < g.NumEdges(); e++ {
			p := m.EdgeProb(graph.EdgeID(e), gamma)
			if p < 0 || p > m.MaxProb(graph.EdgeID(e))+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FillProbs and FillMaxProbs write, row by row, the bits EdgeProb and
// MaxProb return for each edge, on sparse rows (some edges carry no
// entry) under random γ.
func TestFillProbsMatchEdgeProb(t *testing.T) {
	const n, z = 12, 5
	r := rng.New(29)
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := b.Build()
	mb := NewBuilder(g, z)
	for e := 0; e < g.NumEdges(); e++ {
		for zi := 0; zi < z; zi++ {
			if r.Intn(3) == 0 {
				if err := mb.SetProb(graph.EdgeID(e), zi, r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m := mb.Build()
	row := make([]float64, g.NumEdges())
	f := func(seed uint64) bool {
		gamma := topic.Dist(rng.New(seed).DirichletSym(0.7, z))
		for u := graph.NodeID(0); u < n; u++ {
			lo, hi := g.OutEdges(u)
			m.FillProbs(lo, hi, gamma, row[:hi-lo])
			for i, p := range row[:hi-lo] {
				if math.Float64bits(p) != math.Float64bits(m.EdgeProb(lo+graph.EdgeID(i), gamma)) {
					return false
				}
			}
			m.FillMaxProbs(lo, hi, row[:hi-lo])
			for i, p := range row[:hi-lo] {
				if p != m.MaxProb(lo+graph.EdgeID(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func benchModel(b *testing.B, n, deg, z int) *Model {
	b.Helper()
	r := rng.New(1)
	gb := graph.NewBuilder(n)
	for i := 0; i < n*deg; i++ {
		gb.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := gb.Build()
	mb := NewBuilder(g, z)
	for e := 0; e < g.NumEdges(); e++ {
		for k := 0; k < 3; k++ { // sparse: 3 of z topics
			_ = mb.SetProb(graph.EdgeID(e), r.Intn(z), 0.05+0.1*r.Float64())
		}
	}
	return mb.Build()
}

func BenchmarkCascade(b *testing.B) {
	m := benchModel(b, 10000, 8, 8)
	sim := NewSimulator(m)
	gamma := topic.Uniform(8)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Cascade([]graph.NodeID{int32(i % 10000)}, gamma, r, nil)
	}
}

func BenchmarkWeights(b *testing.B) {
	m := benchModel(b, 10000, 8, 8)
	gamma := topic.Uniform(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := m.Weights(gamma)
		_ = w
	}
}
