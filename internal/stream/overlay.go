package stream

import (
	"octopus/internal/actionlog"
	"octopus/internal/graph"
	"octopus/internal/topic"
)

type edgeKey struct{ u, v graph.NodeID }

// OverlayEdge is one pending edge with its prior per-topic activation
// probabilities — the queryable delta before the next fold.
type OverlayEdge struct {
	Src   graph.NodeID `json:"src"`
	Dst   graph.NodeID `json:"dst"`
	Probs topic.Dist   `json:"probs"`
}

// overlay accumulates applied-but-not-yet-folded events on top of an
// immutable base system. It is mutated only by the apply goroutine and
// read by overlay peeks, both under LiveSystem.mu.
type overlay struct {
	edges   map[edgeKey]topic.Dist
	bySrc   map[graph.NodeID][]graph.NodeID
	names   map[graph.NodeID]string
	items   []actionlog.Item
	acts    []actionlog.Action
	maxNode graph.NodeID // highest node id referenced by an accepted edge, -1 if none
	events  int          // accepted events folded into this overlay
}

func newOverlay() *overlay {
	return &overlay{
		edges:   make(map[edgeKey]topic.Dist),
		bySrc:   make(map[graph.NodeID][]graph.NodeID),
		names:   make(map[graph.NodeID]string),
		maxNode: -1,
	}
}

// nodeCeil returns the exclusive node-id bound implied by this overlay's
// accepted edges (0 when none grow the graph).
func (ov *overlay) nodeCeil() int {
	return int(ov.maxNode) + 1
}

// addEdge records an edge event. A key the overlay already holds — a
// re-accepted duplicate — only refreshes the probabilities and names:
// appending to bySrc again would surface the neighbor twice in overlay
// peeks and double-count the event toward fold thresholds and stats.
func (ov *overlay) addEdge(ev EdgeEvent, probs topic.Dist) {
	key := edgeKey{ev.Src, ev.Dst}
	_, dup := ov.edges[key]
	ov.edges[key] = probs
	if !dup {
		ov.bySrc[ev.Src] = append(ov.bySrc[ev.Src], ev.Dst)
		ov.events++
	}
	if ev.Src > ov.maxNode {
		ov.maxNode = ev.Src
	}
	if ev.Dst > ov.maxNode {
		ov.maxNode = ev.Dst
	}
	if ev.SrcName != "" {
		ov.names[ev.Src] = ev.SrcName
	}
	if ev.DstName != "" {
		ov.names[ev.Dst] = ev.DstName
	}
}

func (ov *overlay) hasEdge(u, v graph.NodeID) bool {
	_, ok := ov.edges[edgeKey{u, v}]
	return ok
}

func (ov *overlay) addItem(it actionlog.Item) {
	ov.items = append(ov.items, it)
	ov.events++
}

func (ov *overlay) addAction(a actionlog.Action) {
	ov.acts = append(ov.acts, a)
	ov.events++
}

// appendOutEdges appends u's pending out-edges (with priors) to dst.
func (ov *overlay) appendOutEdges(u graph.NodeID, dst []OverlayEdge) []OverlayEdge {
	for _, v := range ov.bySrc[u] {
		dst = append(dst, OverlayEdge{Src: u, Dst: v, Probs: ov.edges[edgeKey{u, v}].Clone()})
	}
	return dst
}
