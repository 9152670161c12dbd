package stream

import (
	"log/slog"
	"time"

	"octopus/internal/obs"
	"octopus/internal/store"
)

// Config tunes a LiveSystem.
type Config struct {
	// BufferBatches bounds the ingest buffer in *batches* (each
	// IngestEdges/IngestActions call enqueues one batch). Default 64.
	BufferBatches int
	// RebuildEvents folds the overlay into a fresh snapshot once this
	// many events have been applied since the last fold. Default 4096.
	RebuildEvents int
	// RebuildInterval additionally folds a non-empty overlay whose oldest
	// event is older than this (staleness bound). 0 disables the timer.
	RebuildInterval time.Duration
	// Workers overrides the build parallelism of fold rebuilds — the
	// EM/index pipeline behind every snapshot swap (0 inherits the base
	// system's build config, 1 forces serial). More workers shrink
	// snapshot-swap latency; a serving host sharing cores with queries
	// may want fewer than a dedicated builder.
	Workers int
	// IncrementalFold reuses the graph, the model and both indexes
	// (core.Fold) when a delta leaves the graph unchanged — items and
	// actions only — so such a swap costs only the log-derived
	// structures. The folded snapshot is query-for-query identical to a
	// full rebuild at the unchanged seed. A delta that touches the graph
	// rebuilds at the per-generation perturbed seed and counts in
	// Stats.FoldFallbacks. Without it every fold rebuilds.
	IncrementalFold bool
	// foldHook, when non-nil, runs at the start of every fold rebuild
	// and aborts it by returning an error — the failure-injection seam
	// fold-retry tests use.
	foldHook func() error
	// Logger, when non-nil, receives structured pipeline events: fold
	// completions with per-stage timings, fold failures, WAL and
	// checkpoint errors. nil discards them.
	Logger *slog.Logger
	// Store, when non-nil, makes the ingester durable: every drained
	// batch group is appended to the write-ahead log and fsynced once
	// (group commit), every snapshot swap checkpoints (snapshot write +
	// WAL rotation), and Close drains, folds and checkpoints one final
	// time. Ingest calls return once their batch is queued, before the
	// fsync; Flush and ForceSnapshot wait for it, so a nil return from
	// either is the durability acknowledgement. The LiveSystem takes
	// ownership and closes the store, also when NewLiveSystem fails.
	// Open the directory with store.Open and pass the checkpoint it
	// recovered as the base system: NewLiveSystem replays the WAL tail
	// Open kept and folds it before it returns.
	Store *store.Dir
}

func (c *Config) fill() {
	if c.BufferBatches <= 0 {
		c.BufferBatches = 64
	}
	if c.RebuildEvents <= 0 {
		c.RebuildEvents = 4096
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}
