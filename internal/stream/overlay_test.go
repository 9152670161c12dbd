package stream

import (
	"testing"

	"octopus/internal/topic"
)

// A re-accepted edge key must not duplicate the neighbor in bySrc or
// double-count toward the fold threshold — it only refreshes the
// probabilities and names.
func TestOverlayAddEdgeDedupes(t *testing.T) {
	ov := newOverlay()
	ov.addEdge(EdgeEvent{Src: 1, Dst: 2}, topic.Dist{0.1, 0.9})
	ov.addEdge(EdgeEvent{Src: 1, Dst: 3}, topic.Dist{0.5, 0.5})
	ov.addEdge(EdgeEvent{Src: 1, Dst: 2, SrcName: "alice"}, topic.Dist{0.4, 0.6})

	if ov.events != 2 {
		t.Fatalf("events = %d, want 2 (duplicate must not count)", ov.events)
	}
	peek := ov.appendOutEdges(1, nil)
	if len(peek) != 2 {
		t.Fatalf("peek returned %d edges, want 2: %+v", len(peek), peek)
	}
	seen := map[int32]topic.Dist{}
	for _, e := range peek {
		if _, dup := seen[e.Dst]; dup {
			t.Fatalf("destination %d listed twice", e.Dst)
		}
		seen[e.Dst] = e.Probs
	}
	// The duplicate refreshed the probabilities and the name.
	if got := seen[2]; got[0] != 0.4 || got[1] != 0.6 {
		t.Fatalf("re-accepted edge kept stale probs %v", got)
	}
	if ov.names[1] != "alice" {
		t.Fatalf("re-accepted edge dropped the name update")
	}
}
