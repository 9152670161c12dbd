package stream

import (
	"octopus/internal/actionlog"
	"octopus/internal/graph"
)

// EdgeEvent announces a new follow/citation edge. Endpoints beyond the
// current node count grow the graph at the next fold; SrcName/DstName
// optionally assign display names to such new nodes (existing nodes keep
// their names).
type EdgeEvent struct {
	Src     graph.NodeID `json:"src"`
	Dst     graph.NodeID `json:"dst"`
	SrcName string       `json:"srcName,omitempty"`
	DstName string       `json:"dstName,omitempty"`
}

// Event kinds carried through the ingest buffer. Flush and snapshot
// markers ride the same queue so they are ordered with the data events
// they follow.
const (
	evEdge uint8 = iota
	evItem
	evAction
	evFlush    // signal done once every prior event is applied
	evSnapshot // fold the overlay now, then signal done with the result
)

// event is the internal unified representation buffered by the ingester.
// done (markers only) receives nil once the marker is honored, or the
// fold error for evSnapshot; it is buffered so the apply loop never
// blocks on an abandoned waiter.
type event struct {
	kind uint8
	edge EdgeEvent
	item actionlog.Item
	act  actionlog.Action
	done chan error
}
