package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/store"
)

// Sentinel errors returned by the ingestion API.
var (
	// ErrBufferFull is returned by TryIngest* when the bounded buffer is
	// at capacity; the caller should back off and retry.
	ErrBufferFull = errors.New("stream: ingest buffer full")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("stream: live system closed")
)

// LiveSystem serves an immutable core.System snapshot while absorbing a
// stream of graph/action events, periodically folding them into the next
// snapshot. Create with NewLiveSystem; callers must Close it. All
// methods are safe for concurrent use.
//
// It is the concurrent driver around a state: the queue and its
// backpressure, the fold deadline and retry pacing, the WAL and
// checkpoints, and the atomic snapshot swap. Validation, dedup and the
// fold itself are the state's.
type LiveSystem struct {
	cfg Config
	cur atomic.Pointer[Snapshot]

	// mu guards st and the fold counters, which only the apply goroutine
	// writes; a swap stores cur under it too, so a read-locked reader
	// sees the snapshot, the pending overlay and the counters as one cut.
	mu                          sync.RWMutex
	st                          *state
	snapshots, foldFailures     uint64
	incrementalFolds, fallbacks uint64
	totalSwap                   time.Duration

	closeErr error // what the final drain returned; set before wg.Done
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

	ch        chan request
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	killed    atomic.Bool // Kill (crash simulation): skip drain/checkpoint

	accepted, dropped, walErrors atomic.Uint64
	buffered                     atomic.Int64
}

// NewLiveSystem wraps a built base system. With a Store that holds a
// WAL tail past its checkpoint (a crashed predecessor's unfolded
// events), the tail is applied exactly as it was live — edges keep the
// prior they were logged with — and folded, which checkpoints the next
// version, before the background apply goroutine starts. The Store is
// owned from the call on: a failed constructor closes it too.
func NewLiveSystem(sys *core.System, cfg Config) (_ *LiveSystem, err error) {
	defer func() {
		if err != nil && cfg.Store != nil {
			cfg.Store.Close()
		}
	}()
	if sys == nil {
		return nil, fmt.Errorf("stream: nil base system")
	}
	cfg.fill()
	ls := &LiveSystem{
		cfg:    cfg,
		st:     newState(sys),
		ch:     make(chan request, cfg.BufferBatches),
		closed: make(chan struct{}),
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
	if st := cfg.Store; st != nil {
		if tail := st.TakeTail(); len(tail) > 0 {
			ls.mu.Lock()
			ls.st.replay(tail, time.Now()) // logged already: not appended again
			ls.mu.Unlock()
			if err := ls.fold(); err != nil {
				return nil, fmt.Errorf("stream: fold recovered WAL tail: %w", err)
			}
		}
	}
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
// and returns its system and version with a release callback, to be
// called exactly once. One pin yields both, so they never tear across a
// swap.
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

// Version returns the current snapshot version (monotonically
// increasing, starting at 1, bumped by exactly one per swap). It doubles
// as the serving generation, the query-serving layer's cache
// invalidation signal: a result cached under version g is valid only
// while the live system still serves g, so a fold implicitly
// invalidates every cached answer.
func (ls *LiveSystem) Version() uint64 { return ls.cur.Load().Version }

// IngestEdges enqueues edge events, blocking while the buffer is full.
func (ls *LiveSystem) IngestEdges(edges []EdgeEvent) error {
	return ls.enqueue(edgeRecords(edges), true)
}

// TryIngestEdges enqueues edge events or fails fast with ErrBufferFull.
func (ls *LiveSystem) TryIngestEdges(edges []EdgeEvent) error {
	return ls.enqueue(edgeRecords(edges), false)
}

// IngestActions enqueues new items and actions (either slice may be
// empty), blocking while the buffer is full. Items must precede actions
// that reference them — within one call this ordering is automatic.
func (ls *LiveSystem) IngestActions(items []actionlog.Item, acts []actionlog.Action) error {
	return ls.enqueue(actionRecords(items, acts), true)
}

// TryIngestActions is IngestActions with fail-fast backpressure.
func (ls *LiveSystem) TryIngestActions(items []actionlog.Item, acts []actionlog.Action) error {
	return ls.enqueue(actionRecords(items, acts), false)
}

func edgeRecords(edges []EdgeEvent) []store.Record {
	recs := make([]store.Record, len(edges))
	for i, e := range edges {
		recs[i] = store.Record{Kind: store.RecEdge, Src: e.Src, Dst: e.Dst, SrcName: e.SrcName, DstName: e.DstName}
	}
	return recs
}

func actionRecords(items []actionlog.Item, acts []actionlog.Action) []store.Record {
	recs := make([]store.Record, 0, len(items)+len(acts))
	for _, it := range items {
		recs = append(recs, store.Record{Kind: store.RecItem, ItemID: it.ID, Keywords: it.Keywords})
	}
	for _, a := range acts {
		recs = append(recs, store.Record{Kind: store.RecAction, User: a.User, Item: a.Item, Time: a.Time})
	}
	return recs
}

func (ls *LiveSystem) enqueue(recs []store.Record, wait bool) error {
	if len(recs) == 0 {
		return nil
	}
	select {
	case <-ls.closed:
		return ErrClosed
	default:
	}
	// Count into the buffer before the send so the apply goroutine's
	// decrement can never race Buffered below zero.
	n := uint64(len(recs))
	ls.buffered.Add(int64(n))
	rq := request{recs: recs}
	if wait {
		select {
		case ls.ch <- rq:
		case <-ls.closed:
			ls.buffered.Add(-int64(n))
			return ErrClosed
		}
	} else {
		select {
		case ls.ch <- rq:
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
func (ls *LiveSystem) Flush() error { return ls.marker(false) }

// ForceSnapshot folds all pending events into a new snapshot now and
// blocks until the swap — and, with a Store, its checkpoint — completes
// (a no-op when nothing is pending). A fold failure is returned with
// the pending delta retained for the next fold; so is a checkpoint
// failure, after which the swap stands and the WAL still holds the
// events.
func (ls *LiveSystem) ForceSnapshot() error { return ls.marker(true) }

func (ls *LiveSystem) marker(fold bool) error {
	done := make(chan error, 1)
	select {
	case ls.ch <- request{done: done, fold: fold}:
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
// restart-ready. A failure of that final fold, checkpoint or store
// close is returned.
func (ls *LiveSystem) Close() error {
	ls.closeOnce.Do(func() { close(ls.closed) })
	ls.wg.Wait()
	return ls.closeErr
}

// Kill stops the apply goroutine abruptly: no drain, no final fold, no
// checkpoint, and the store's WAL file is left open exactly as a
// crashed process would leave it. It exists so crash-recovery tests
// (and chaos drills) can restart from a realistic mid-stream state.
func (ls *LiveSystem) Kill() {
	ls.killed.Store(true)
	ls.closeOnce.Do(func() { close(ls.closed) })
	ls.wg.Wait()
}

// run is the background apply loop: drain the buffer, apply records to
// the state, and fold when a threshold trips. The staleness bound is a
// deadline armed from the arrival of the oldest pending event, so a
// quiet overlay folds after exactly RebuildInterval, not at the whim of
// a coarser ticker phase.
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
		pending, since := ls.st.ov.events, ls.st.since
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
		timer.Reset(max(time.Until(deadline), 0))
	}
	for {
		select {
		case <-ls.closed:
			ls.closeErr = ls.shutdown()
			return
		case rq := <-ls.ch:
			ls.process(ls.drainMore([]request{rq}))
			rearm()
		case <-timerC:
			armed = time.Time{}
			ls.mu.RLock()
			stale := ls.st.staleness(time.Now()) >= ls.cfg.RebuildInterval
			ls.mu.RUnlock()
			if stale && ls.fold() != nil {
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

// retryBackoff is the pause between automatic retries of a failing
// fold: the staleness interval when one is configured, else a second.
func (ls *LiveSystem) retryBackoff() time.Duration {
	if ls.cfg.RebuildInterval > 0 {
		return ls.cfg.RebuildInterval
	}
	return time.Second
}

// drainMore opportunistically pulls additional already-buffered
// requests off the channel so one WAL fsync covers all of them (group
// commit) and fold-threshold checks run once per drain.
func (ls *LiveSystem) drainMore(reqs []request) []request {
	for len(reqs) < 32 {
		select {
		case rq := <-ls.ch:
			reqs = append(reqs, rq)
		default:
			return reqs
		}
	}
	return reqs
}

// process applies a drained request group: records applied under the
// lock, one WAL append+fsync for the accepted ones, then the fold check
// and marker replies. Markers are only answered after the group is
// durable, so Flush doubles as a durability barrier — and reports the
// sticky WAL failure if durability is currently compromised.
func (ls *LiveSystem) process(reqs []request) {
	var recs []store.Record // the accepted records, in apply order
	force := false
	ls.mu.Lock()
	now := time.Now()
	for _, rq := range reqs {
		force = force || rq.fold
		ls.buffered.Add(-int64(len(rq.recs)))
		for i := range rq.recs {
			if ls.st.apply(&rq.recs[i], now) {
				recs = append(recs, rq.recs[i])
			}
		}
	}
	pending := ls.st.ov.events
	ls.mu.Unlock()
	ls.logRecords(recs)
	var foldErr error
	if force || (pending >= ls.cfg.RebuildEvents && time.Now().After(ls.foldRetryAt)) {
		foldErr = ls.fold()
		if foldErr != nil && !force {
			ls.foldRetryAt = time.Now().Add(ls.retryBackoff())
		}
	}
	for _, rq := range reqs {
		switch {
		case rq.done == nil:
		case rq.fold && foldErr != nil:
			rq.done <- foldErr
		default:
			rq.done <- ls.WALFailure()
		}
	}
}

// logRecords appends accepted records to the WAL and fsyncs once (group
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
	}
}

// shutdown finishes the apply goroutine. A killed system stops dead (to
// mimic a crash); a closed one drains the buffered requests, makes them
// durable, and — when a store is attached — folds and checkpoints one
// final time before closing the store, returning what failed of those.
func (ls *LiveSystem) shutdown() error {
	if ls.killed.Load() {
		return nil
	}
	for {
		select {
		case rq := <-ls.ch:
			ls.process([]request{rq})
		default:
			var err error
			if st := ls.cfg.Store; st != nil {
				err = ls.fold() // final checkpoint; also recorded in stats
				if cerr := st.Close(); cerr != nil {
					ls.walErrors.Add(1)
					err = errors.Join(err, fmt.Errorf("stream: close store: %w", cerr))
				}
			}
			// Graceful shutdown retires the final snapshot so its mapped
			// backing reference is dropped once in-flight pins release.
			// (Kill skips this, like everything else — the process is
			// pretending to have crashed.)
			ls.cur.Load().Retire()
			return err
		}
	}
}

// fold turns the state's overlay into the next snapshot. It runs on the
// apply goroutine — the only writer of the state — so nothing is
// applied while a fold is in flight: the overlay stays in place, and
// pending to readers, until the new snapshot is published. On failure
// the previous snapshot keeps serving and the delta simply stays
// pending, so no accepted event is lost. A failed checkpoint is
// returned too, after the swap: the WAL still holds the folded events.
func (ls *LiveSystem) fold() error {
	old := ls.cur.Load()
	version := old.Version + 1
	start := time.Now()
	ls.mu.RLock()
	events := ls.st.ov.events
	if events == 0 {
		ls.mu.RUnlock()
		return nil
	}
	sys, incremental, err := ls.st.fold(&ls.cfg, version)
	ls.mu.RUnlock()
	if err != nil {
		ls.mu.Lock()
		ls.foldFailures++
		ls.mu.Unlock()
		ls.cfg.Logger.Error("fold failed",
			slog.Uint64("version", old.Version),
			slog.Int("pendingEvents", events),
			slog.Any("error", err))
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
	// Publish the snapshot and retire the folded delta in one critical
	// section so locked readers (Stats) never see the same events both
	// in the new snapshot and as pending.
	next := NewSnapshot(sys, version, elapsed)
	ls.mu.Lock()
	ls.cur.Store(next)
	ls.st.retire(sys)
	ls.snapshots++
	ls.totalSwap += elapsed
	if incremental {
		ls.incrementalFolds++
	} else if ls.cfg.IncrementalFold {
		ls.fallbacks++
	}
	ls.mu.Unlock()
	// The old generation is no longer current: drop its backing reference
	// once its last pinned reader (if any) finishes.
	old.Retire()
	ls.foldRetryAt = time.Time{} // a success ends any retry pacing
	tm := sys.Timings()
	ls.cfg.Logger.Info("fold",
		slog.Uint64("version", version),
		slog.Int("events", events),
		slog.Bool("incremental", incremental),
		slog.Duration("swap", elapsed),
		slog.Duration("model", tm.Model),
		slog.Duration("otim", tm.OTIM),
		slog.Duration("tags", tm.Tags),
		slog.Duration("derived", tm.Derived))
	if st := ls.cfg.Store; st != nil {
		// Checkpoint: persist the freshly folded snapshot, then rotate the
		// WAL (Checkpoint only rotates after the snapshot landed, so a
		// failure here never loses logged events — recovery just replays a
		// longer tail).
		if err := st.Checkpoint(sys, version); err != nil {
			// Compaction failed, but nothing durable was lost: the WAL still
			// holds the logged tail, so walFailure is left as-is.
			ls.walErrors.Add(1)
			ls.cfg.Logger.Error("checkpoint failed", slog.Uint64("version", version), slog.Any("error", err))
			return fmt.Errorf("stream: checkpoint: %w", err)
		}
		ls.cfg.Logger.Info("checkpoint",
			slog.Uint64("version", version),
			slog.Int64("bytes", st.LastCheckpointBytes()))
		// The snapshot persists everything applied so far, including any
		// events a failed WAL write left off disk — durability restored.
		ls.walFailure.Store(nil)
	}
	return nil
}
