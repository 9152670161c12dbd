package stream

import (
	"octopus/internal/actionlog"
	"octopus/internal/graph"
	"octopus/internal/store"
	"octopus/internal/topic"
)

type edgeKey struct{ u, v graph.NodeID }

// overlay accumulates applied-but-not-yet-folded records on top of an
// immutable base system. It belongs to a state, so it is mutated only
// under LiveSystem.mu and locked readers (Stats, Staleness) see its
// counters consistently.
type overlay struct {
	edges   map[edgeKey]topic.Dist
	names   map[graph.NodeID]string
	items   []actionlog.Item
	acts    []actionlog.Action
	maxNode graph.NodeID // highest node id referenced by an accepted edge, -1 if none
	events  int          // accepted events folded into this overlay
}

func newOverlay() *overlay {
	return &overlay{
		edges:   make(map[edgeKey]topic.Dist),
		names:   make(map[graph.NodeID]string),
		maxNode: -1,
	}
}

// nodeCeil returns the exclusive node-id bound implied by this overlay's
// accepted edges (0 when none grow the graph).
func (ov *overlay) nodeCeil() int {
	return int(ov.maxNode) + 1
}

// addEdge records an accepted edge record with its prior. The caller
// (state.applyEdge) has already rejected an edge the overlay holds.
func (ov *overlay) addEdge(rec *store.Record) {
	ov.edges[edgeKey{rec.Src, rec.Dst}] = rec.Probs
	ov.events++
	ov.maxNode = max(ov.maxNode, rec.Src, rec.Dst)
	if rec.SrcName != "" {
		ov.names[rec.Src] = rec.SrcName
	}
	if rec.DstName != "" {
		ov.names[rec.Dst] = rec.DstName
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
