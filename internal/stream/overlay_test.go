package stream

import (
	"testing"

	"octopus/internal/store"
)

// A re-accepted edge key must not double-count toward the fold
// threshold — it only refreshes the probabilities and names.
func TestOverlayAddEdgeDedupes(t *testing.T) {
	ov := newOverlay()
	ov.addEdge(&store.Record{Kind: store.RecEdge, Src: 1, Dst: 2, Probs: []float64{0.1, 0.9}})
	ov.addEdge(&store.Record{Kind: store.RecEdge, Src: 1, Dst: 3, Probs: []float64{0.5, 0.5}})
	ov.addEdge(&store.Record{Kind: store.RecEdge, Src: 1, Dst: 2, SrcName: "alice", Probs: []float64{0.4, 0.6}})

	if ov.events != 2 {
		t.Fatalf("events = %d, want 2 (duplicate must not count)", ov.events)
	}
	if len(ov.edges) != 2 {
		t.Fatalf("overlay holds %d edges, want 2: %v", len(ov.edges), ov.edges)
	}
	// The duplicate refreshed the probabilities and the name.
	if got := ov.edges[edgeKey{1, 2}]; got[0] != 0.4 || got[1] != 0.6 {
		t.Fatalf("re-accepted edge kept stale probs %v", got)
	}
	if ov.names[1] != "alice" {
		t.Fatalf("re-accepted edge dropped the name update")
	}
}
