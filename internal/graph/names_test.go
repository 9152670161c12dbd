package graph

import (
	"fmt"
	"slices"
	"testing"

	"octopus/internal/rng"
)

func namedGraph(names ...string) *Graph {
	b := NewBuilder(len(names))
	for u, nm := range names {
		b.SetName(NodeID(u), nm)
	}
	return b.Build()
}

// TestLookupLastNameWins: a name several nodes carry resolves to the
// highest of them, and the empty name resolves to nothing.
func TestLookupLastNameWins(t *testing.T) {
	g := namedGraph("michael jordan", "jiawei han", "jure leskovec", "jiawei han", "", "jiawei han")
	if id, ok := g.Lookup("jiawei han"); !ok || id != 5 {
		t.Fatalf("Lookup(jiawei han) = %d, %v; want 5", id, ok)
	}
	if _, ok := g.Lookup(""); ok {
		t.Fatal("the empty name resolved")
	}
	if got := g.WithPrefix(""); !slices.Equal(got, []NodeID{5, 2, 0}) {
		t.Fatalf("WithPrefix(\"\") = %v, want one id per distinct name in name order [5 2 0]", got)
	}
	if got := g.WithPrefix("j"); !slices.Equal(got, []NodeID{5, 2}) {
		t.Fatalf("WithPrefix(j) = %v", got)
	}
	if got := g.WithPrefix("jure leskovec"); !slices.Equal(got, []NodeID{2}) {
		t.Fatalf("a whole name is its own prefix: %v", got)
	}
	if got := g.WithPrefix("x"); len(got) != 0 {
		t.Fatalf("WithPrefix(x) = %v", got)
	}
	if _, ok := triangle(t).Lookup("a"); ok || len(triangle(t).WithPrefix("")) != 0 {
		t.Fatal("an unnamed graph resolved a name")
	}
}

func TestWithPrefixContainsAllMatches(t *testing.T) {
	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("user%03d", i)
	}
	g := namedGraph(names...)
	if got := g.WithPrefix("user0"); len(got) != 100 {
		t.Fatalf("WithPrefix(user0) = %d ids, want 100", len(got))
	}
	if got := g.WithPrefix("user09"); !slices.Equal(got, []NodeID{90, 91, 92, 93, 94, 95, 96, 97, 98, 99}) {
		t.Fatalf("WithPrefix(user09) = %v", got)
	}
}

// TestNameTableAllocs: building the table allocates its one id slice,
// however many names there are.
func TestNameTableAllocs(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{100, 2000} {
		names := make([]string, n)
		for u := range names {
			names[u] = fmt.Sprintf("author %d", r.Intn(n))
		}
		if allocs := testing.AllocsPerRun(5, func() { sortNames(names) }); allocs != 1 {
			t.Fatalf("building the table over %d names made %.0f allocations, want 1", n, allocs)
		}
	}
}
