package stream

import (
	"octopus/internal/graph"
	"octopus/internal/store"
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

// request is one element of the ingest queue: a batch of records — the
// WAL's own type, from enqueue to apply to the log — or a marker, which
// rides the same queue so it is ordered behind the batches before it.
// A marker's done receives nil once it is honored, or the fold error
// for a snapshot marker; it is buffered so the apply loop never blocks
// on an abandoned waiter.
type request struct {
	recs []store.Record
	done chan error // non-nil on markers only
	fold bool       // snapshot marker: fold the overlay now
}
