package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/store"
	"octopus/internal/tic"
)

// Sentinel errors returned by the ingestion API.
var (
	// ErrBufferFull is returned by TryIngest* when the bounded buffer is
	// at capacity; the caller should back off and retry.
	ErrBufferFull = errors.New("stream: ingest buffer full")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("stream: live system closed")
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
	// MaxNodes caps the total node count the stream may grow the graph
	// to, guarding against a malformed event allocating an enormous CSR
	// at fold time. Default 4×base nodes + 1024.
	MaxNodes int
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
	// ownership and closes the store. Open the directory with
	// store.Open, which also recovers any previous state.
	Store *store.Dir
}

func (c *Config) fill(base *core.System) {
	if c.BufferBatches <= 0 {
		c.BufferBatches = 64
	}
	if c.RebuildEvents <= 0 {
		c.RebuildEvents = 4096
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4*base.Graph().NumNodes() + 1024
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
}

// Snapshot is one immutable serving generation. Version increases by
// exactly 1 per fold; a fresh base system is version 1, and a durable
// system resumes from its store's last checkpoint generation so
// versions stay monotone across restarts.
type Snapshot struct {
	Sys     *core.System
	Version uint64
	BuiltAt time.Time
	// SwapLatency is the rebuild duration paid off the hot path for this
	// snapshot (0 for the base snapshot).
	SwapLatency time.Duration

	// Mapped-backing lifecycle. A snapshot whose system aliases a mapped
	// snapshot file holds one reference on that backing (taken at
	// publish); readers pin the snapshot around query evaluation, and
	// the reference is released — allowing the eventual munmap — only
	// after the snapshot is retired (swapped out or shut down) AND the
	// last pin is gone. pins is the live pin count, with -1 as the
	// released sentinel so late pins fail instead of resurrecting a
	// released backing.
	pins    atomic.Int64
	retired atomic.Bool
	backing core.Backing
}

// NewSnapshot publishes sys as a serving generation, taking a reference
// on its mapped backing (if any) for the snapshot's lifetime. Besides
// the LiveSystem's own folds, a read replica publishes each mapped
// checkpoint through it (internal/repl); swap is the time the
// generation took to produce.
func NewSnapshot(sys *core.System, version uint64, swap time.Duration) *Snapshot {
	s := &Snapshot{Sys: sys, Version: version, BuiltAt: time.Now(), SwapLatency: swap}
	if b := sys.Backing(); b != nil {
		b.Retain()
		s.backing = b
	}
	return s
}

// tryPin takes a read pin; it fails only when the snapshot's backing
// reference is already released (retired with no remaining pins).
func (s *Snapshot) tryPin() bool {
	for {
		n := s.pins.Load()
		if n < 0 {
			return false
		}
		if s.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unpin drops a read pin, releasing the backing reference if this was
// the last pin on a retired snapshot.
func (s *Snapshot) unpin() {
	if s.pins.Add(-1) == 0 && s.retired.Load() {
		s.tryRelease()
	}
}

// Retire marks the snapshot as no longer current; the backing reference
// is released now if unpinned, else by the last unpin. Call it once,
// after a successor has replaced it wherever Pin loads from.
func (s *Snapshot) Retire() {
	s.retired.Store(true)
	s.tryRelease()
}

// tryRelease moves pins 0 → released exactly once and drops the backing
// reference. Snapshots without a backing skip the transition — there is
// nothing to release, and leaving pins untouched keeps tryPin cheap.
func (s *Snapshot) tryRelease() {
	if s.backing != nil && s.pins.CompareAndSwap(0, -1) {
		s.backing.Release()
	}
}

// Stats is a point-in-time view of the ingestion pipeline. Counters are
// cumulative over the LiveSystem's lifetime; events rejected with
// ErrBufferFull count as dropped, malformed or out-of-order events as
// invalid, and re-sent edges/items as duplicates.
type Stats struct {
	Version         uint64    `json:"version"`
	Nodes           int       `json:"nodes"`
	Edges           int       `json:"edges"`
	Episodes        int       `json:"episodes"`
	Accepted        uint64    `json:"accepted"`
	Dropped         uint64    `json:"droppedBufferFull"`
	Invalid         uint64    `json:"invalid"`
	Duplicates      uint64    `json:"duplicates"`
	Applied         uint64    `json:"applied"`
	Pending         int       `json:"pending"`
	Buffered        int64     `json:"buffered"`
	Snapshots       uint64    `json:"snapshots"`
	FoldFailures    uint64    `json:"foldFailures"`
	LastSwapMillis  float64   `json:"lastSwapMillis"`
	TotalSwapMillis float64   `json:"totalSwapMillis"`
	LastSwapAt      time.Time `json:"lastSwapAt,omitempty"`
	// With Config.IncrementalFold, IncrementalFolds counts the swaps
	// that reused the indexes (graph-unchanged deltas) and FoldFallbacks
	// the ones that rebuilt (the delta touched the graph).
	IncrementalFolds uint64 `json:"incrementalFolds"`
	FoldFallbacks    uint64 `json:"foldFallbacks"`
	// Per-stage durations of the last fold's construction (model
	// carry-over, index builds, derived structures) — where the
	// swap latency went.
	LastFoldModelMillis   float64 `json:"lastFoldModelMillis"`
	LastFoldOTIMMillis    float64 `json:"lastFoldOtimMillis"`
	LastFoldTagsMillis    float64 `json:"lastFoldTagsMillis"`
	LastFoldDerivedMillis float64 `json:"lastFoldDerivedMillis"`
	// StalenessMillis is the age of the oldest event applied to the
	// overlay but not yet folded into a serving snapshot (0 when none
	// are pending).
	StalenessMillis float64 `json:"stalenessMillis"`

	// Durability counters (zero-valued unless Config.Store is set).
	Durable               bool   `json:"durable"`
	WALRecords            uint64 `json:"walRecords"`
	WALSyncs              uint64 `json:"walSyncs"`
	WALBytes              int64  `json:"walBytes"`
	WALBytesLogged        int64  `json:"walBytesLogged"`
	WALErrors             uint64 `json:"walErrors"`
	Checkpoints           uint64 `json:"checkpoints"`
	LastCheckpointVersion uint64 `json:"lastCheckpointVersion,omitempty"`
	// WALFailed is the sticky WAL failure (empty while every applied
	// event is on disk): set when an append or fsync fails, cleared by
	// the next successful checkpoint.
	WALFailed string `json:"walFailed"`
}

// LiveSystem serves an immutable core.System snapshot while absorbing a
// stream of graph/action events, periodically folding them into the next
// snapshot. Create with NewLiveSystem; callers must Close it. All
// methods are safe for concurrent use.
type LiveSystem struct {
	cfg Config
	cur atomic.Pointer[Snapshot]

	mu sync.RWMutex
	ov *overlay // accumulating delta since the last fold
	// Item dedup is two-tiered so its memory stays bounded by the live
	// state instead of the process history: baseItems is the sorted item
	// ids of the serving snapshot's action log (rebuilt per fold),
	// itemIDs holds only the pending overlay's items and is emptied
	// when a fold retires them into the base. baseItems is derived
	// lazily (baseItemsOK) so wrapping a mapped snapshot does not force
	// its deferred action-log decode before the first item arrives.
	baseItems   []int32
	baseItemsOK bool
	itemIDs     map[int32]struct{}
	since       time.Time // arrival of ov's oldest event
	lastErr     error     // last fold failure, if any
	// walFailure is the sticky durability gap: a WAL append/sync failed,
	// so some applied events are not on disk. Only the apply goroutine
	// writes it; Flush, ForceSnapshot, Stats and health probes read it
	// until a successful checkpoint persists the full state (snapshot
	// includes the overlay), which closes the gap and clears it.
	walFailure atomic.Pointer[error]
	// foldRetryAt (apply goroutine only) paces automatic retries after a
	// failed fold: the restored delta keeps tripping its thresholds, so
	// without a floor every batch arrival or deadline recheck would
	// re-run the expensive failing rebuild. Explicit ForceSnapshot
	// bypasses it; any successful fold clears it.
	foldRetryAt time.Time

	ch        chan []event
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	killed    atomic.Bool // Kill (crash simulation): skip drain/checkpoint

	accepted, dropped, invalid, duplicates atomic.Uint64
	applied, snapshots, foldFailures       atomic.Uint64
	incrementalFolds, foldFallbacks        atomic.Uint64
	walErrors                              atomic.Uint64
	buffered                               atomic.Int64
	lastSwapNanos, totalSwapNanos          atomic.Int64
	lastSwapAtNanos                        atomic.Int64
	lastFoldModelNanos, lastFoldOTIMNanos  atomic.Int64
	lastFoldTagsNanos, lastFoldDerivNanos  atomic.Int64
}

// NewLiveSystem wraps a built base system. The background apply
// goroutine starts immediately.
func NewLiveSystem(sys *core.System, cfg Config) (*LiveSystem, error) {
	if sys == nil {
		return nil, fmt.Errorf("stream: nil base system")
	}
	cfg.fill(sys)
	ls := &LiveSystem{
		cfg:     cfg,
		ov:      newOverlay(),
		itemIDs: make(map[int32]struct{}),
		ch:      make(chan []event, cfg.BufferBatches),
		closed:  make(chan struct{}),
	}
	version := uint64(1)
	if st := cfg.Store; st != nil {
		if !st.HasSnapshot() {
			// First durable run: checkpoint the base system so recovery
			// always has a snapshot to replay the WAL over.
			if err := st.Checkpoint(sys, version); err != nil {
				return nil, fmt.Errorf("stream: initial checkpoint: %w", err)
			}
		} else if v := st.LastCheckpointVersion(); v > version {
			// Resume the generation counter where the store left off so
			// checkpoint versions stay monotone across restarts.
			version = v
		}
	}
	ls.cur.Store(NewSnapshot(sys, version, 0))
	ls.wg.Add(1)
	go ls.run()
	return ls, nil
}

// System returns the current serving snapshot's system — one atomic
// load, never blocked by ingestion or folding.
func (ls *LiveSystem) System() *core.System { return ls.cur.Load().Sys }

// Snapshot returns the current serving snapshot.
func (ls *LiveSystem) Snapshot() *Snapshot { return ls.cur.Load() }

// Acquire pins the current serving snapshot for the duration of a read
// and returns its system and version with a release callback
// (idempotent). One pin yields both, so they never tear across a swap.
// While any pin is held the snapshot's mapped backing cannot be
// unmapped, even if a fold swaps the generation out concurrently — the
// swap only retires it, and the munmap waits for the last release.
// Callers that miss the pin race against shutdown still get the final
// snapshot (its arrays remain valid for as long as the process owner
// keeps the store handle open); the release is then a no-op.
func (ls *LiveSystem) Acquire() (*core.System, uint64, func()) {
	sn, rel := Pin(ls.cur.Load)
	return sn.Sys, sn.Version, rel
}

// Pin pins the generation current returns — the one pin protocol behind
// LiveSystem.Acquire and a read replica's Acquire. current must load the
// serving generation from wherever its publisher swaps it; a snapshot
// retired between the load and the pin is skipped for its successor.
func Pin(current func() *Snapshot) (*Snapshot, func()) {
	for {
		s := current()
		if s.tryPin() {
			var once sync.Once
			return s, func() { once.Do(s.unpin) }
		}
		if current() == s {
			// Released already (post-shutdown): nothing left to pin.
			return s, func() {}
		}
		// A swap replaced the generation mid-race; pin the new one.
	}
}

// Version returns the current snapshot version (monotonically
// increasing, starting at 1, bumped by exactly one per swap). It doubles
// as the serving generation, the query-serving layer's cache
// invalidation signal: a result cached under version g is valid only
// while the live system still serves g, so a fold implicitly
// invalidates every cached answer.
func (ls *LiveSystem) Version() uint64 { return ls.cur.Load().Version }

// IngestEdges enqueues edge events, blocking while the buffer is full.
func (ls *LiveSystem) IngestEdges(edges []EdgeEvent) error {
	return ls.enqueue(edgeBatch(edges), true)
}

// TryIngestEdges enqueues edge events or fails fast with ErrBufferFull.
func (ls *LiveSystem) TryIngestEdges(edges []EdgeEvent) error {
	return ls.enqueue(edgeBatch(edges), false)
}

// IngestActions enqueues new items and actions (either slice may be
// empty), blocking while the buffer is full. Items must precede actions
// that reference them — within one call this ordering is automatic.
func (ls *LiveSystem) IngestActions(items []actionlog.Item, acts []actionlog.Action) error {
	return ls.enqueue(actionBatch(items, acts), true)
}

// TryIngestActions is IngestActions with fail-fast backpressure.
func (ls *LiveSystem) TryIngestActions(items []actionlog.Item, acts []actionlog.Action) error {
	return ls.enqueue(actionBatch(items, acts), false)
}

func edgeBatch(edges []EdgeEvent) []event {
	b := make([]event, 0, len(edges))
	for _, e := range edges {
		b = append(b, event{kind: evEdge, edge: e})
	}
	return b
}

func actionBatch(items []actionlog.Item, acts []actionlog.Action) []event {
	b := make([]event, 0, len(items)+len(acts))
	for _, it := range items {
		b = append(b, event{kind: evItem, item: it})
	}
	for _, a := range acts {
		b = append(b, event{kind: evAction, act: a})
	}
	return b
}

func (ls *LiveSystem) enqueue(batch []event, wait bool) error {
	if len(batch) == 0 {
		return nil
	}
	select {
	case <-ls.closed:
		return ErrClosed
	default:
	}
	// Count into the buffer before the send so the apply goroutine's
	// decrement can never race Buffered below zero.
	n := uint64(len(batch))
	ls.buffered.Add(int64(n))
	if wait {
		select {
		case ls.ch <- batch:
		case <-ls.closed:
			ls.buffered.Add(-int64(n))
			return ErrClosed
		}
	} else {
		select {
		case ls.ch <- batch:
		default:
			ls.buffered.Add(-int64(n))
			ls.dropped.Add(n)
			return ErrBufferFull
		}
	}
	ls.accepted.Add(n)
	return nil
}

// Flush blocks until every event enqueued before the call has been
// applied to the overlay (not necessarily folded).
func (ls *LiveSystem) Flush() error { return ls.marker(evFlush) }

// ForceSnapshot folds all pending events into a new snapshot now and
// blocks until the swap completes (a no-op when nothing is pending).
// A fold failure is returned; the pending delta is retained and will be
// retried at the next fold.
func (ls *LiveSystem) ForceSnapshot() error { return ls.marker(evSnapshot) }

func (ls *LiveSystem) marker(kind uint8) error {
	done := make(chan error, 1)
	select {
	case ls.ch <- []event{{kind: kind, done: done}}:
	case <-ls.closed:
		return ErrClosed
	}
	select {
	case err := <-done:
		return err
	case <-ls.closed:
		return ErrClosed
	}
}

// Close stops the apply goroutine. Without a Store, events still
// buffered are discarded and the current snapshot remains usable. With
// a Store, Close is a graceful shutdown: buffered batches are drained,
// applied and logged, a final fold checkpoints the merged state, and
// the store is closed — so the durability directory is exactly
// restart-ready.
func (ls *LiveSystem) Close() error {
	ls.closeOnce.Do(func() { close(ls.closed) })
	ls.wg.Wait()
	return nil
}

// Kill stops the apply goroutine abruptly: no drain, no final fold, no
// checkpoint, and the store's WAL file is left open exactly as a
// crashed process would leave it. It exists so crash-recovery tests
// (and chaos drills) can exercise store.Recover against a realistic
// mid-stream state.
func (ls *LiveSystem) Kill() {
	ls.killed.Store(true)
	ls.closeOnce.Do(func() { close(ls.closed) })
	ls.wg.Wait()
}

// Staleness returns the age of the oldest event applied to the live
// overlay but not yet visible in a snapshot, or 0 when the overlay is
// drained. It is the cheap accessor behind the SLO ingest-staleness
// objective: health probes and the diagnostics watchdog call it on
// every evaluation, so it takes only the read lock and skips the full
// Stats assembly.
func (ls *LiveSystem) Staleness() time.Duration {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.stalenessLocked()
}

// stalenessLocked computes the pending-event age; callers hold ls.mu.
func (ls *LiveSystem) stalenessLocked() time.Duration {
	if ls.ov.events == 0 || ls.since.IsZero() {
		return 0
	}
	return time.Since(ls.since)
}

// Stats reports pipeline counters and current-snapshot dimensions.
func (ls *LiveSystem) Stats() Stats {
	snap := ls.cur.Load()
	sysStats := snap.Sys.Stats()
	ls.mu.RLock()
	pending := ls.ov.events
	staleness := ls.stalenessLocked()
	ls.mu.RUnlock()
	st := Stats{
		Version:         snap.Version,
		Nodes:           sysStats.Nodes,
		Edges:           sysStats.Edges,
		Episodes:        sysStats.Episodes,
		Accepted:        ls.accepted.Load(),
		Dropped:         ls.dropped.Load(),
		Invalid:         ls.invalid.Load(),
		Duplicates:      ls.duplicates.Load(),
		Applied:         ls.applied.Load(),
		Pending:         pending,
		Buffered:        ls.buffered.Load(),
		Snapshots:       ls.snapshots.Load(),
		FoldFailures:    ls.foldFailures.Load(),
		LastSwapMillis:  float64(ls.lastSwapNanos.Load()) / 1e6,
		TotalSwapMillis: float64(ls.totalSwapNanos.Load()) / 1e6,
		StalenessMillis: float64(staleness) / 1e6,

		IncrementalFolds: ls.incrementalFolds.Load(),
		FoldFallbacks:    ls.foldFallbacks.Load(),

		LastFoldModelMillis:   float64(ls.lastFoldModelNanos.Load()) / 1e6,
		LastFoldOTIMMillis:    float64(ls.lastFoldOTIMNanos.Load()) / 1e6,
		LastFoldTagsMillis:    float64(ls.lastFoldTagsNanos.Load()) / 1e6,
		LastFoldDerivedMillis: float64(ls.lastFoldDerivNanos.Load()) / 1e6,
	}
	if at := ls.lastSwapAtNanos.Load(); at != 0 {
		st.LastSwapAt = time.Unix(0, at)
	}
	if d := ls.cfg.Store; d != nil {
		st.Durable = true
		st.WALRecords = d.WALRecords()
		st.WALSyncs = d.WALSyncs()
		st.WALBytes = d.WALSize()
		st.WALBytesLogged = d.WALBytesLogged()
		st.WALErrors = ls.walErrors.Load()
		if err := ls.WALFailure(); err != nil {
			st.WALFailed = err.Error()
		}
		st.Checkpoints = d.Checkpoints()
		st.LastCheckpointVersion = d.LastCheckpointVersion()
	}
	return st
}

// Store returns the durability directory backing this system (nil when
// not durable) — the handle observability collectors read WAL and
// checkpoint instruments from.
func (ls *LiveSystem) Store() *store.Dir { return ls.cfg.Store }

// WALFailure returns the sticky WAL failure: non-nil from a failed
// append or fsync until a successful checkpoint closes the gap (always
// nil without a Store).
func (ls *LiveSystem) WALFailure() error {
	if p := ls.walFailure.Load(); p != nil {
		return *p
	}
	return nil
}

// LastFoldError returns the most recent fold failure (nil if none).
func (ls *LiveSystem) LastFoldError() error {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.lastErr
}

// run is the background apply loop: drain the buffer, apply events to
// the overlay, and fold when a threshold trips. The staleness bound is
// a deadline armed from ls.since — the arrival of the oldest pending
// event — so a quiet overlay folds after exactly RebuildInterval, not
// at the whim of a coarser ticker phase (the previous half-interval
// ticker let worst-case staleness reach 1.5× the configured bound).
func (ls *LiveSystem) run() {
	defer ls.wg.Done()
	var timer *time.Timer
	var timerC <-chan time.Time
	var armed time.Time // deadline the timer is set for; zero = disarmed
	if ls.cfg.RebuildInterval > 0 {
		timer = time.NewTimer(time.Hour)
		timer.Stop()
		timerC = timer.C
		defer timer.Stop()
	}
	// rearm points the deadline timer at since+RebuildInterval whenever
	// events are pending, and disarms it otherwise. After a failed fold
	// the restored delta's deadline is already in the past, so the
	// deadline is floored at the retry pace instead of re-arming an
	// immediate (and expensive) retry on every batch arrival.
	rearm := func() {
		if timer == nil {
			return
		}
		ls.mu.RLock()
		pending := ls.ov.events
		since := ls.since
		ls.mu.RUnlock()
		if pending == 0 {
			if !armed.IsZero() {
				armed = time.Time{}
				timer.Stop()
			}
			return
		}
		deadline := since.Add(ls.cfg.RebuildInterval)
		if deadline.Before(ls.foldRetryAt) {
			deadline = ls.foldRetryAt
		}
		if armed.Equal(deadline) {
			return
		}
		armed = deadline
		d := time.Until(deadline)
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
	}
	for {
		select {
		case <-ls.closed:
			ls.shutdown()
			return
		case batch := <-ls.ch:
			batches := ls.drainMore([][]event{batch})
			ls.process(batches)
			rearm()
		case <-timerC:
			armed = time.Time{}
			ls.mu.RLock()
			stale := ls.ov.events > 0 && time.Since(ls.since) >= ls.cfg.RebuildInterval
			ls.mu.RUnlock()
			var err error
			if stale {
				err = ls.fold() // failure is recorded in stats; delta retained
			}
			if err != nil {
				// The delta stays pending with its original arrival time, so
				// since+interval is already in the past: pace the retry one
				// full interval out instead of spinning on the failure (and
				// keep batch-arrival rearms from undercutting the floor).
				ls.foldRetryAt = time.Now().Add(ls.retryBackoff())
				armed = ls.foldRetryAt
				timer.Reset(time.Until(armed))
			} else {
				rearm()
			}
		}
	}
}

func (ls *LiveSystem) pendingEvents() int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.ov.events
}

// retryBackoff is the pause between automatic retries of a failing
// fold: the staleness interval when one is configured, else a second.
func (ls *LiveSystem) retryBackoff() time.Duration {
	if ls.cfg.RebuildInterval > 0 {
		return ls.cfg.RebuildInterval
	}
	return time.Second
}

// drainMore opportunistically pulls additional already-buffered batches
// off the channel so one WAL fsync covers all of them (group commit)
// and fold-threshold checks run once per drain.
func (ls *LiveSystem) drainMore(batches [][]event) [][]event {
	for len(batches) < 32 {
		select {
		case b := <-ls.ch:
			batches = append(batches, b)
		default:
			return batches
		}
	}
	return batches
}

// process applies a drained batch group: overlay mutation under the
// lock, one WAL append+fsync for the whole group, then the fold check
// and marker replies. Markers are only answered after the group is
// durable, so Flush doubles as a durability barrier — and reports the
// sticky WAL failure if durability is currently compromised.
func (ls *LiveSystem) process(batches [][]event) {
	forceFold, markers, recs := ls.applyBatches(batches)
	ls.logRecords(recs)
	var foldErr error
	if forceFold || (ls.pendingEvents() >= ls.cfg.RebuildEvents && time.Now().After(ls.foldRetryAt)) {
		foldErr = ls.fold()
		if foldErr != nil && !forceFold {
			ls.foldRetryAt = time.Now().Add(ls.retryBackoff())
		}
	}
	for _, m := range markers {
		switch {
		case m.kind == evSnapshot && foldErr != nil:
			m.done <- foldErr
		default:
			m.done <- ls.WALFailure()
		}
	}
}

// applyBatches applies buffered batches to the overlay. It returns
// whether a snapshot marker demanded an immediate fold, the marker
// events to answer once the group is durable and any fold completed,
// and the WAL records for the events that were accepted.
func (ls *LiveSystem) applyBatches(batches [][]event) (forceFold bool, markers []event, recs []store.Record) {
	base := ls.cur.Load().Sys
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, batch := range batches {
		ls.buffered.Add(-countData(batch))
		for _, ev := range batch {
			switch ev.kind {
			case evEdge:
				if rec, ok := ls.applyEdge(base, ev.edge); ok {
					recs = append(recs, rec)
				}
			case evItem:
				if rec, ok := ls.applyItem(ev.item); ok {
					recs = append(recs, rec)
				}
			case evAction:
				if rec, ok := ls.applyAction(base, ev.act); ok {
					recs = append(recs, rec)
				}
			case evFlush:
				markers = append(markers, ev)
			case evSnapshot:
				forceFold = true
				markers = append(markers, ev)
			}
		}
	}
	return forceFold, markers, recs
}

// logRecords appends accepted events to the WAL and fsyncs once (group
// commit). A write failure does not stop ingestion — availability wins
// — but it is sticky: counted in walErrors and returned by every
// Flush/ForceSnapshot until a successful checkpoint closes the
// durability gap. No-op without a Store.
func (ls *LiveSystem) logRecords(recs []store.Record) {
	st := ls.cfg.Store
	if st == nil || len(recs) == 0 {
		return
	}
	err := st.Append(recs)
	if err == nil {
		err = st.Sync()
	}
	if err != nil {
		ls.walErrors.Add(1)
		ls.walFailure.Store(&err)
		ls.cfg.Logger.Error("wal write failed", slog.Int("records", len(recs)), slog.Any("error", err))
		ls.mu.Lock()
		ls.lastErr = err
		ls.mu.Unlock()
	}
}

// shutdown finishes the apply goroutine. A killed system stops dead (to
// mimic a crash); a closed one drains the buffered batches, makes them
// durable, and — when a store is attached — folds and checkpoints one
// final time before closing the store.
func (ls *LiveSystem) shutdown() {
	if ls.killed.Load() {
		return
	}
	for {
		select {
		case batch := <-ls.ch:
			ls.process([][]event{batch})
		default:
			if ls.cfg.Store != nil {
				_ = ls.fold() // final checkpoint; failure already recorded in stats
				if err := ls.cfg.Store.Close(); err != nil {
					ls.walErrors.Add(1)
					ls.mu.Lock()
					ls.lastErr = err
					ls.mu.Unlock()
				}
			}
			// Graceful shutdown retires the final snapshot so its mapped
			// backing reference is dropped once in-flight pins release.
			// (Kill skips this, like everything else — the process is
			// pretending to have crashed.)
			ls.cur.Load().Retire()
			return
		}
	}
}

func countData(batch []event) int64 {
	n := int64(0)
	for _, ev := range batch {
		if ev.kind == evEdge || ev.kind == evItem || ev.kind == evAction {
			n++
		}
	}
	return n
}

// applyEdge validates, dedupes and assigns a prior; caller holds mu.
// The WAL record (second return false when the event was rejected)
// carries the assigned prior so recovery reproduces the exact model.
func (ls *LiveSystem) applyEdge(base *core.System, ev EdgeEvent) (store.Record, bool) {
	n := base.Graph().NumNodes()
	if ev.Src < 0 || ev.Dst < 0 || ev.Src == ev.Dst ||
		int(ev.Src) >= ls.cfg.MaxNodes || int(ev.Dst) >= ls.cfg.MaxNodes {
		ls.invalid.Add(1)
		return store.Record{}, false
	}
	if int(ev.Src) < n && int(ev.Dst) < n {
		if _, ok := base.Graph().FindEdge(ev.Src, ev.Dst); ok {
			ls.duplicates.Add(1)
			return store.Record{}, false
		}
	}
	if ls.ov.hasEdge(ev.Src, ev.Dst) {
		ls.duplicates.Add(1)
		return store.Record{}, false
	}
	ls.noteFirstEvent()
	prior := weightedJaccardPrior(base, ev.Src, ev.Dst)
	ls.ov.addEdge(ev, prior)
	ls.applied.Add(1)
	return store.Record{
		Kind: store.RecEdge, Src: ev.Src, Dst: ev.Dst,
		SrcName: ev.SrcName, DstName: ev.DstName, Probs: prior,
	}, true
}

// baseItemIDs returns the sorted distinct item ids of a log — the
// compact dedup tier for items already folded into the serving base.
func baseItemIDs(log *actionlog.Log) []int32 {
	ids := make([]int32, 0, len(log.Episodes))
	for _, ep := range log.Episodes {
		ids = append(ids, ep.Item.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// mergeItemIDs merges the folded overlay's item ids into the sorted
// base tier — O(base + delta log delta). Overlay items are unique and
// disjoint from the base by the apply-time dedup.
func mergeItemIDs(base []int32, items []actionlog.Item) []int32 {
	if len(items) == 0 {
		return base
	}
	add := make([]int32, 0, len(items))
	for _, it := range items {
		add = append(add, it.ID)
	}
	sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
	out := make([]int32, 0, len(base)+len(add))
	i, j := 0, 0
	for i < len(base) && j < len(add) {
		if base[i] <= add[j] {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, add[j:]...)
	return out
}

// baseItemTier returns the sorted base dedup tier, deriving it from the
// serving snapshot's action log on first use. Only the apply goroutine
// calls this (fold and the apply handlers), so the lazy fill needs no
// extra synchronization beyond mu already excluding locked readers.
func (ls *LiveSystem) baseItemTier() []int32 {
	if !ls.baseItemsOK {
		ls.baseItems = baseItemIDs(ls.cur.Load().Sys.ActionLog())
		ls.baseItemsOK = true
	}
	return ls.baseItems
}

// hasItem reports whether an item id is known to the base log or a
// pending overlay; caller holds mu.
func (ls *LiveSystem) hasItem(id int32) bool {
	if _, ok := ls.itemIDs[id]; ok {
		return true
	}
	base := ls.baseItemTier()
	i := sort.Search(len(base), func(i int) bool { return base[i] >= id })
	return i < len(base) && base[i] == id
}

func (ls *LiveSystem) applyItem(it actionlog.Item) (store.Record, bool) {
	if it.ID < 0 {
		ls.invalid.Add(1)
		return store.Record{}, false
	}
	if ls.hasItem(it.ID) {
		ls.duplicates.Add(1)
		return store.Record{}, false
	}
	ls.itemIDs[it.ID] = struct{}{}
	ls.noteFirstEvent()
	ls.ov.addItem(it)
	ls.applied.Add(1)
	return store.Record{Kind: store.RecItem, ItemID: it.ID, Keywords: it.Keywords}, true
}

func (ls *LiveSystem) applyAction(base *core.System, a actionlog.Action) (store.Record, bool) {
	ceil := base.Graph().NumNodes()
	if c := ls.ov.nodeCeil(); c > ceil {
		ceil = c
	}
	if a.User < 0 || int(a.User) >= ceil {
		ls.invalid.Add(1)
		return store.Record{}, false
	}
	if !ls.hasItem(a.Item) {
		ls.invalid.Add(1)
		return store.Record{}, false
	}
	ls.noteFirstEvent()
	ls.ov.addAction(a)
	ls.applied.Add(1)
	return store.Record{Kind: store.RecAction, User: a.User, Item: a.Item, Time: a.Time}, true
}

func (ls *LiveSystem) noteFirstEvent() {
	if ls.ov.events == 0 {
		ls.since = time.Now()
	}
}

// fold turns the accumulated overlay into the next snapshot. Runs on the
// apply goroutine — the only overlay mutator — so nothing is applied
// while a fold is in flight: the overlay stays in place, and pending to
// readers, until the new snapshot is published. On failure the previous
// snapshot keeps serving and the delta simply stays pending, so no
// accepted event is lost.
func (ls *LiveSystem) fold() error {
	ov := ls.ov // read without mu: only this goroutine writes ls.ov
	if ov.events == 0 {
		return nil
	}

	start := time.Now()
	old := ls.cur.Load()
	sys, incremental, err := ls.rebuild(old, ov)
	if err != nil {
		ls.foldFailures.Add(1)
		ls.cfg.Logger.Error("fold failed",
			slog.Uint64("version", old.Version),
			slog.Int("pendingEvents", ov.events),
			slog.Any("error", err))
		ls.mu.Lock()
		ls.lastErr = err
		ls.mu.Unlock()
		return err
	}
	elapsed := time.Since(start)
	// Folded systems share structure with their predecessor (the graph,
	// model and indexes of a graph-unchanged fold, the carried-over
	// models of a rebuild), so a descendant of a mapped base may still
	// alias mapped arrays. Propagate the backing pointer conservatively:
	// every generation in the lineage keeps the mapping alive until it is
	// itself retired.
	if b := old.Sys.Backing(); b != nil && sys.Backing() == nil {
		sys.SetBacking(b)
	}
	// The folded items now live in the base log: merge them into the
	// compact sorted base tier (outside the lock — only this goroutine
	// mutates it) so the fold's dedup upkeep is O(delta), not a re-sort
	// of the corpus.
	merged := mergeItemIDs(ls.baseItemTier(), ov.items)
	// Publish the snapshot and retire the folded delta in one critical
	// section so locked readers (Stats) never see the same events both
	// in the new snapshot and as pending.
	ls.mu.Lock()
	ls.cur.Store(NewSnapshot(sys, old.Version+1, elapsed))
	ls.ov = newOverlay()
	// A fresh map, not clear(): the overlay-item set shrinks across folds.
	ls.itemIDs = make(map[int32]struct{})
	ls.baseItems = merged
	ls.mu.Unlock()
	// The old generation is no longer current: drop its backing reference
	// once its last pinned reader (if any) finishes.
	old.Retire()
	ls.foldRetryAt = time.Time{} // a success ends any retry pacing
	ls.snapshots.Add(1)
	if incremental {
		ls.incrementalFolds.Add(1)
	} else if ls.cfg.IncrementalFold {
		ls.foldFallbacks.Add(1)
	}
	ls.lastSwapNanos.Store(int64(elapsed))
	ls.totalSwapNanos.Add(int64(elapsed))
	ls.lastSwapAtNanos.Store(time.Now().UnixNano())
	timings := sys.Timings()
	ls.lastFoldModelNanos.Store(int64(timings.Model))
	ls.lastFoldOTIMNanos.Store(int64(timings.OTIM))
	ls.lastFoldTagsNanos.Store(int64(timings.Tags))
	ls.lastFoldDerivNanos.Store(int64(timings.Derived))
	ls.cfg.Logger.Info("fold",
		slog.Uint64("version", old.Version+1),
		slog.Int("events", ov.events),
		slog.Bool("incremental", incremental),
		slog.Duration("swap", elapsed),
		slog.Duration("model", timings.Model),
		slog.Duration("otim", timings.OTIM),
		slog.Duration("tags", timings.Tags),
		slog.Duration("derived", timings.Derived))
	if st := ls.cfg.Store; st != nil {
		// Checkpoint: persist the freshly folded snapshot, then rotate the
		// WAL (Checkpoint only rotates after the snapshot landed, so a
		// failure here never loses logged events — recovery just replays a
		// longer tail).
		if err := st.Checkpoint(sys, old.Version+1); err != nil {
			// Compaction failed, but nothing durable was lost: the WAL still
			// holds the logged tail, so walFailure is left as-is.
			ls.walErrors.Add(1)
			ls.cfg.Logger.Error("checkpoint failed", slog.Uint64("version", old.Version+1), slog.Any("error", err))
			ls.mu.Lock()
			ls.lastErr = err
			ls.mu.Unlock()
		} else {
			ls.cfg.Logger.Info("checkpoint",
				slog.Uint64("version", old.Version+1),
				slog.Int64("bytes", st.LastCheckpointBytes()))
			// The snapshot persists everything applied so far, including any
			// events a failed WAL write left off disk — durability restored.
			ls.walFailure.Store(nil)
		}
	}
	return nil
}

// foldSeed is the build seed of a rebuilt generation: the base seed
// perturbed per generation, so successive rebuilds draw fresh poll
// trees.
func foldSeed(base, version uint64) uint64 { return base ^ version*0x9e3779b97f4a7c15 }

// rebuild merges the overlay into the old snapshot's graph, model and
// log, and produces the next system with the base index tuning. A
// delta that leaves the graph unchanged reuses the graph, the model and
// both indexes (core.Fold) when Config.IncrementalFold allows it;
// everything else runs core.Build at the perturbed seed. The second
// return reports whether the indexes were reused.
func (ls *LiveSystem) rebuild(old *Snapshot, ov *overlay) (*core.System, bool, error) {
	if h := ls.cfg.foldHook; h != nil {
		if err := h(); err != nil {
			return nil, false, err
		}
	}
	oldSys := old.Sys
	oldG := oldSys.Graph()

	// An action/item-only delta leaves the graph — and therefore the
	// model and both indexes — untouched.
	newG := oldG
	if len(ov.edges) > 0 || len(ov.names) > 0 {
		b := graph.NewBuilder(oldG.NumNodes())
		b.AddGraph(oldG)
		for key := range ov.edges {
			b.AddEdge(key.u, key.v)
		}
		for u, nm := range ov.names {
			if int(u) >= oldG.NumNodes() || oldG.Name(u) == "" {
				b.SetName(u, nm)
			}
		}
		newG = b.Build()
	}

	// Merge the delta into the log instead of rebuilding it from every
	// action ever seen — identical output, cost proportional to the
	// overlay.
	newLog := actionlog.Merge(oldSys.ActionLog(), newG.NumNodes(), ov.items, ov.acts)

	cfg := oldSys.BuildConfig()
	if ls.cfg.Workers != 0 {
		cfg.Workers = ls.cfg.Workers
	}
	// Folds share the keyword model with serving snapshots, so its topic
	// names must never be re-touched from the fold goroutine.
	cfg.TopicNames = nil

	if ls.cfg.IncrementalFold && newG == oldG {
		// The seed is NOT perturbed: the indexes it drew are reused.
		sys, err := core.Fold(oldSys, newLog, cfg)
		if err != nil {
			return nil, false, fmt.Errorf("stream: fold: %w", err)
		}
		return sys, true, nil
	}

	cfg.Seed = foldSeed(cfg.Seed, old.Version+1)
	// Carry the learned model onto the grown graph, overlay priors
	// filling the new edges.
	model := oldSys.Propagation()
	if newG != oldG {
		var err error
		model, err = tic.Remap(model, newG, func(u, v graph.NodeID) []float64 {
			if probs, ok := ov.edges[edgeKey{u, v}]; ok {
				return probs
			}
			return nil
		})
		if err != nil {
			return nil, false, fmt.Errorf("stream: fold model: %w", err)
		}
	}
	cfg.GroundTruth = model
	cfg.GroundTruthWords = oldSys.Keywords()
	sys, err := core.Build(newG, newLog, cfg)
	if err != nil {
		return nil, false, fmt.Errorf("stream: fold rebuild: %w", err)
	}
	return sys, false, nil
}
