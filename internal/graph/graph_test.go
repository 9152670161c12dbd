package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"octopus/internal/rng"
)

func triangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 2)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("deg(0) out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDedupAndSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1 (dedup + self-loop drop)", g.NumEdges())
	}
}

func TestImplicitGrowth(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumNodes() != 10 {
		t.Fatalf("n=%d, want 10", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFindEdgeAndSrc(t *testing.T) {
	g := triangle(t)
	e, ok := g.FindEdge(0, 2)
	if !ok {
		t.Fatal("edge (0,2) not found")
	}
	if g.Dst(e) != 2 || g.Src(e) != 0 {
		t.Fatalf("edge endpoints wrong: src=%d dst=%d", g.Src(e), g.Dst(e))
	}
	if _, ok := g.FindEdge(1, 0); ok {
		t.Fatal("found nonexistent edge (1,0)")
	}
}

func TestReverseAdjacency(t *testing.T) {
	g := triangle(t)
	lo, hi := g.InSlots(2)
	if hi-lo != 2 {
		t.Fatalf("in-degree of 2 = %d", hi-lo)
	}
	srcs := map[NodeID]bool{}
	for s := lo; s < hi; s++ {
		srcs[g.InSrc(s)] = true
		e := g.InEdgeID(s)
		if g.Dst(e) != 2 {
			t.Fatalf("reverse slot edge %d has dst %d", e, g.Dst(e))
		}
	}
	if !srcs[0] || !srcs[1] {
		t.Fatalf("in-sources of 2 = %v", srcs)
	}
}

func TestNames(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetName(0, "Rakesh Agrawal")
	b.SetName(1, "Jiawei Han")
	g := b.Build()
	if g.Name(0) != "Rakesh Agrawal" {
		t.Fatalf("Name(0) = %q", g.Name(0))
	}
	id, ok := g.Lookup("Jiawei Han")
	if !ok || id != 1 {
		t.Fatalf("Lookup = %d,%v", id, ok)
	}
	if _, ok := g.Lookup("nobody"); ok {
		t.Fatal("Lookup found nonexistent name")
	}
}

func TestNoNames(t *testing.T) {
	g := triangle(t)
	if g.Name(0) != "" || g.Names() != nil {
		t.Fatal("unnamed graph should return empty names")
	}
}

func TestTextRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 0)
	b.SetName(0, "alice smith")
	b.SetName(3, "bob")
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if g2.Name(0) != "alice smith" || g2.Name(3) != "bob" {
		t.Fatalf("round trip lost names: %q %q", g2.Name(0), g2.Name(3))
	}
	if _, ok := g2.FindEdge(3, 0); !ok {
		t.Fatal("round trip lost edge (3,0)")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"e 1",    // missing dst
		"e a b",  // non-numeric
		"v 0",    // missing name
		"x 1 2",  // unknown record
		"n",      // missing count
		"n -5",   // negative count
		"e -1 2", // negative id
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Fatalf("ReadText(%q) succeeded, want error", c)
		}
	}
}

func TestReadTextCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nn 3\ne 0 1\n# another\ne 1 2\n"
	g, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	s := g.ComputeStats()
	if s.Nodes != 4 || s.Edges != 3 || s.MaxOutDeg != 3 || s.MaxInDeg != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Sources != 1 { // node 0
		t.Fatalf("sources = %d", s.Sources)
	}
	if s.Sinks != 3 {
		t.Fatalf("sinks = %d", s.Sinks)
	}
	if s.AvgDeg != 0.75 {
		t.Fatalf("avg = %v", s.AvgDeg)
	}
}

// Property: any random edge list builds a graph that validates and whose
// adjacency agrees with the input set.
func TestQuickBuildValidates(t *testing.T) {
	f := func(seed uint64, nEdges uint8) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		b := NewBuilder(n)
		type pair struct{ u, v NodeID }
		want := map[pair]bool{}
		for i := 0; i < int(nEdges); i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				want[pair{u, v}] = true
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		if g.NumEdges() != len(want) {
			return false
		}
		for p := range want {
			if _, ok := g.FindEdge(p.u, p.v); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: text round-trip preserves the edge set exactly.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		b := NewBuilder(n)
		for i := 0; i < 30; i++ {
			b.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if WriteText(&buf, g) != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil || g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for u := NodeID(0); u < NodeID(g.NumNodes()); u++ {
			a, b2 := g.OutNeighbors(u), g2.OutNeighbors(u)
			if len(a) != len(b2) {
				return false
			}
			for i := range a {
				if a[i] != b2[i] {
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

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	const n, m = 10000, 50000
	type pair struct{ u, v NodeID }
	edges := make([]pair, m)
	for i := range edges {
		edges[i] = pair{NodeID(r.Intn(n)), NodeID(r.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(n)
		for _, e := range edges {
			bu.AddEdge(e.u, e.v)
		}
		g := bu.Build()
		_ = g
	}
}
