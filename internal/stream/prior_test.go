package stream

import (
	"testing"

	"octopus/internal/graph"
)

func TestWeightedJaccardPrior(t *testing.T) {
	sys, _ := buildBase(t, 200, 23)
	z := sys.Propagation().NumTopics()

	// Pick a source with out-edges and a destination with in-edges.
	var src, dst graph.NodeID = -1, -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if src < 0 && sys.Graph().OutDegree(graph.NodeID(u)) > 2 {
			src = graph.NodeID(u)
		}
		if dst < 0 && sys.Graph().InDegree(graph.NodeID(u)) > 2 && graph.NodeID(u) != src {
			dst = graph.NodeID(u)
		}
	}
	if src < 0 || dst < 0 {
		t.Fatal("no suitable endpoints in generated graph")
	}

	probs := weightedJaccardPrior(sys, src, dst)
	if len(probs) != z {
		t.Fatalf("prior has %d entries, want %d", len(probs), z)
	}
	total := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prior prob %v out of [0,1]", p)
		}
		total += p
	}
	if total <= 0 {
		t.Fatal("prior assigned no probability mass between active endpoints")
	}
	// The total mass cannot exceed the source's typical edge strength.
	if m0 := meanOutEnvelope(sys, src); total > m0+1e-9 {
		t.Fatalf("prior mass %v exceeds source envelope %v", total, m0)
	}

	// Brand-new endpoints (beyond the graph) still get an uninformed,
	// non-zero prior so the edge is usable immediately.
	n := graph.NodeID(sys.Graph().NumNodes())
	fresh := weightedJaccardPrior(sys, n+5, n+9)
	totalFresh := 0.0
	for _, p := range fresh {
		totalFresh += p
	}
	if totalFresh <= 0 {
		t.Fatal("uninformed prior is dead")
	}
	// Uniform blend: all topics equal.
	for i := 1; i < z; i++ {
		if fresh[i] != fresh[0] {
			t.Fatalf("uninformed prior not uniform: %v", fresh)
		}
	}
}

func TestWeightedJaccardHelper(t *testing.T) {
	a := normalizeOrNil([]float64{1, 1, 0, 0})
	b := normalizeOrNil([]float64{0, 0, 1, 1})
	if j := weightedJaccard(a, b); j != 0 {
		t.Fatalf("disjoint profiles J = %v, want 0", j)
	}
	if j := weightedJaccard(a, a); j != 1 {
		t.Fatalf("identical profiles J = %v, want 1", j)
	}
	c := normalizeOrNil([]float64{1, 1, 1, 1})
	if j := weightedJaccard(a, c); j <= 0 || j >= 1 {
		t.Fatalf("overlapping profiles J = %v, want in (0,1)", j)
	}
}
