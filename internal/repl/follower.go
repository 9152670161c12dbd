package repl

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/obs"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// Config configures a Follower.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://leader:8080").
	Leader string
	// Dir is the follower's durability directory: the fetched snapshot,
	// the local WAL and local checkpoints live here, so a restarted
	// follower resumes from its last fold instead of re-downloading.
	Dir string
	// HTTP optionally overrides the transport. It must not set a global
	// Timeout (tail requests long-poll).
	HTTP *http.Client
	// Stream seeds the local LiveSystem's serving-side knobs
	// (BufferBatches, Workers, Prior). Fold-critical settings are
	// overwritten with the leader's FoldConfig, automatic folds are
	// disabled (the follower folds exactly at the leader's fences), and
	// Store is owned by the follower.
	Stream stream.Config
	// PollWait is the long-poll budget per tail request (default 10s).
	PollWait time.Duration
	// MaxBytes caps one tail response (0 = leader default).
	MaxBytes int64
	// RetryBackoff is the initial reconnect backoff after a failed
	// request (default 200ms, doubling up to 10s).
	RetryBackoff time.Duration
	// Logger receives replication lifecycle events (nil discards).
	Logger *slog.Logger
}

// Stats is a point-in-time view of a follower's replication pipeline.
type Stats struct {
	Leader   string `json:"leader"`
	Ready    bool   `json:"ready"`
	CaughtUp bool   `json:"caughtUp"`
	// LagMillis is how long the follower has been behind the leader's
	// durable frontier (0 while caught up).
	LagMillis     float64 `json:"lagMillis"`
	LagBytes      int64   `json:"lagBytes"`
	EpochsBehind  int64   `json:"epochsBehind"`
	Epoch         uint64  `json:"epoch"`
	Offset        int64   `json:"offset"`
	Version       uint64  `json:"version"`
	RecordsQueued uint64  `json:"recordsQueued"`
	BytesApplied  int64   `json:"bytesApplied"`
	Folds         uint64  `json:"folds"`
	Reconnects    uint64  `json:"reconnects"`
	// Rebootstraps counts full re-syncs forced by a leader restart
	// signal (snapshot refetch + remap).
	Rebootstraps    uint64 `json:"rebootstraps"`
	SnapshotFetches uint64 `json:"snapshotFetches"`
	SnapshotBytes   int64  `json:"snapshotBytes"`
	SnapshotResumes uint64 `json:"snapshotResumes"`
}

const followerMaxBackoff = 10 * time.Second

// Follower replicates a leader's live system: it bootstraps by mapping
// the leader's snapshot in place (store.Map — zero-copy) and then tails
// the leader's WAL, replaying records through the normal ingest path
// and folding exactly at the leader's checkpoint fences. Live() is the
// serving handle; it changes identity when a leader restart forces a
// re-bootstrap, so servers must resolve it per request.
type Follower struct {
	cfg    Config
	client *Client
	logger *slog.Logger

	live   atomic.Pointer[stream.LiveSystem]
	mapped atomic.Pointer[store.Mapped]

	ready        atomic.Bool
	caughtUp     atomic.Bool
	lastCaughtUp atomic.Int64 // unix nanos of the latest caught-up observation
	startedAt    time.Time

	epochPos      atomic.Uint64
	offsetPos     atomic.Int64
	leaderEpoch   atomic.Uint64
	leaderDurable atomic.Int64

	reconnects      atomic.Uint64
	rebootstraps    atomic.Uint64
	snapshotFetches atomic.Uint64
	snapshotBytes   atomic.Int64
	snapshotResumes atomic.Uint64
	recordsQueued   atomic.Uint64
	bytesApplied    atomic.Int64
	folds           atomic.Uint64

	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Start bootstraps a follower against cfg.Leader — retrying with
// backoff while the leader is unreachable, until ctx is cancelled — and
// launches the tail loop. The returned Follower is serving (possibly
// still catching up; see Ready) and must be Closed.
func Start(ctx context.Context, cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, errors.New("repl: follower needs a leader URL")
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: follower needs a durability directory")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	f := &Follower{
		cfg:       cfg,
		client:    NewClient(cfg.Leader, cfg.HTTP),
		logger:    cfg.Logger,
		startedAt: time.Now(),
	}
	backoff := cfg.RetryBackoff
	for {
		err := f.bootstrap(ctx, false)
		if err == nil {
			break
		}
		f.logger.Warn("replica bootstrap failed; retrying",
			slog.String("leader", cfg.Leader), slog.Duration("backoff", backoff), slog.Any("error", err))
		if !sleepCtx(ctx, backoff) {
			return nil, fmt.Errorf("repl: bootstrap aborted: %w", err)
		}
		backoff = minDuration(backoff*2, followerMaxBackoff)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	f.wg.Add(1)
	go f.run(runCtx)
	return f, nil
}

// Live returns the current serving system. Its identity changes across
// re-bootstraps: resolve it per request, never cache it.
func (f *Follower) Live() *stream.LiveSystem { return f.live.Load() }

// Leader returns the leader's base URL.
func (f *Follower) Leader() string { return f.cfg.Leader }

// Ready reports whether the follower has bootstrapped and caught up
// with the leader at least once — before that, its answers reflect an
// arbitrarily old snapshot and health should not report it servable.
func (f *Follower) Ready() bool { return f.ready.Load() }

// CaughtUp reports whether the latest tail round left nothing durable
// unfetched.
func (f *Follower) CaughtUp() bool { return f.caughtUp.Load() }

// Lag returns how long the follower has been behind the leader's
// durable frontier: 0 while caught up, else the time since it last was
// (or since Start, if never). It feeds the serving layer's staleness
// objective, so a stalled or disconnected follower degrades health the
// same way a leader whose overlay outruns its folds does.
func (f *Follower) Lag() time.Duration {
	if f.caughtUp.Load() {
		return 0
	}
	if last := f.lastCaughtUp.Load(); last != 0 {
		return time.Since(time.Unix(0, last))
	}
	return time.Since(f.startedAt)
}

// MapStats reports how the current snapshot is backed (mmap vs heap
// fallback).
func (f *Follower) MapStats() (store.MapStats, bool) {
	if m := f.mapped.Load(); m != nil {
		return m.Stats(), true
	}
	return store.MapStats{}, false
}

// Stats assembles the follower-side replication counters.
func (f *Follower) Stats() Stats {
	st := Stats{
		Leader:          f.cfg.Leader,
		Ready:           f.ready.Load(),
		CaughtUp:        f.caughtUp.Load(),
		LagMillis:       float64(f.Lag()) / 1e6,
		Epoch:           f.epochPos.Load(),
		Offset:          f.offsetPos.Load(),
		RecordsQueued:   f.recordsQueued.Load(),
		BytesApplied:    f.bytesApplied.Load(),
		Folds:           f.folds.Load(),
		Reconnects:      f.reconnects.Load(),
		Rebootstraps:    f.rebootstraps.Load(),
		SnapshotFetches: f.snapshotFetches.Load(),
		SnapshotBytes:   f.snapshotBytes.Load(),
		SnapshotResumes: f.snapshotResumes.Load(),
	}
	if ls := f.live.Load(); ls != nil {
		st.Version = ls.Version()
	}
	if le := f.leaderEpoch.Load(); le >= st.Epoch {
		st.EpochsBehind = int64(le - st.Epoch)
	}
	if st.EpochsBehind == 0 {
		if d := f.leaderDurable.Load() - st.Offset; d > 0 {
			st.LagBytes = d
		}
	}
	return st
}

// Close stops the tail loop and freezes the serving state. Shutdown
// uses crash semantics (Kill) on purpose: a graceful Close would fold
// the partially applied epoch into a version number whose contents the
// leader defines differently, breaking the fence alignment. The local
// snapshot already holds the last fence; on restart the follower
// re-tails from there, so nothing is lost.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.stop()
		f.wg.Wait()
		f.teardownLive()
	})
	return nil
}

// bootstrap (re)builds the serving state from the leader: fetch (or
// reuse) the snapshot, map it in place, and wrap it in a fence-driven
// LiveSystem. On success f.live points at the new system.
func (f *Follower) bootstrap(ctx context.Context, forceFetch bool) error {
	st, err := f.client.Status(ctx)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return err
	}
	snapPath := store.SnapshotPathIn(f.cfg.Dir)
	var localV uint64
	if v, err := store.PeekVersion(snapPath); err == nil {
		localV = v
	}
	switch {
	case !forceFetch && localV > 0 && localV <= st.SnapshotVersion:
		// A local checkpoint exists and does not outrun the leader: tail
		// from it. If the leader no longer retains our epoch it will
		// signal a restart and we come back here with forceFetch.
		f.logger.Info("replica reusing local snapshot",
			slog.Uint64("version", localV), slog.Uint64("leaderVersion", st.SnapshotVersion))
	default:
		v, n, resumed, err := f.client.FetchSnapshot(ctx, snapPath)
		if err != nil {
			return err
		}
		f.snapshotFetches.Add(1)
		f.snapshotBytes.Add(n)
		if resumed {
			f.snapshotResumes.Add(1)
		}
		f.logger.Info("replica snapshot fetched",
			slog.Uint64("version", v), slog.Int64("bytes", n), slog.Bool("resumed", resumed))
	}
	dir, err := store.OpenRaw(f.cfg.Dir)
	if err != nil {
		return err
	}
	sys, mapped, err := store.Map(dir.SnapshotPath(), store.MapOptions{})
	if err != nil {
		dir.Close()
		return fmt.Errorf("repl: map snapshot: %w", err)
	}
	scfg := f.cfg.Stream
	scfg.Store = dir
	scfg.Logger = f.cfg.Logger
	// Fold only at the leader's fences: disable both automatic triggers.
	scfg.RebuildEvents = math.MaxInt32
	scfg.RebuildInterval = 0
	// Mirror the leader's fold-critical settings so equal versions serve
	// identical answers.
	scfg.MaxNodes = st.Fold.MaxNodes
	scfg.IncrementalFold = st.Fold.IncrementalFold
	scfg.RelearnEM = st.Fold.RelearnEM
	scfg.Topics = st.Fold.Topics
	ls, err := stream.NewLiveSystem(sys, scfg)
	if err != nil {
		mapped.Close()
		dir.Close()
		return err
	}
	f.live.Store(ls)
	if old := f.mapped.Swap(mapped); old != nil {
		old.Close() // drop the creator reference; pinned readers keep theirs
	}
	f.logger.Info("replica serving",
		slog.Uint64("version", ls.Version()),
		slog.String("backing", mapped.Stats().Backing))
	return nil
}

// teardownLive stops the current live system with crash semantics —
// see Close for why a graceful close would be wrong — and releases its
// WAL handle. The retired system's snapshot (and mapped backing) stays
// valid for readers that already resolved it: the backing reference is
// deliberately retained, a bounded leak of one mapping per leader
// restart that keeps in-flight queries safe during the swap.
func (f *Follower) teardownLive() {
	ls := f.live.Load()
	if ls == nil {
		return
	}
	ls.Kill()
	if d := ls.Store(); d != nil {
		_ = d.Close()
	}
}

// rebootstrap re-syncs from the leader's current snapshot after a
// restart signal, retrying with backoff until ctx ends. The old system
// keeps serving until the new one is mapped and swapped in. Returns
// false when ctx was cancelled.
func (f *Follower) rebootstrap(ctx context.Context) bool {
	f.rebootstraps.Add(1)
	f.caughtUp.Store(false)
	f.teardownLive()
	backoff := f.cfg.RetryBackoff
	for {
		err := f.bootstrap(ctx, true)
		if err == nil {
			return true
		}
		f.logger.Warn("replica re-bootstrap failed; retrying",
			slog.Duration("backoff", backoff), slog.Any("error", err))
		if !sleepCtx(ctx, backoff) {
			return false
		}
		backoff = minDuration(backoff*2, followerMaxBackoff)
	}
}

// run is the tail loop: fetch WAL bytes at the current position, replay
// them, advance epochs at sealed boundaries, and re-bootstrap on
// restart signals or apply divergence.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	setPos := func(epoch uint64, offset int64) {
		f.epochPos.Store(epoch)
		f.offsetPos.Store(offset)
	}
	epoch, offset := f.Live().Version(), store.WALHeaderLen
	setPos(epoch, offset)
	backoff := f.cfg.RetryBackoff
	resync := func() bool {
		if !f.rebootstrap(ctx) {
			return false
		}
		epoch, offset = f.Live().Version(), store.WALHeaderLen
		setPos(epoch, offset)
		return true
	}
	for ctx.Err() == nil {
		res, err := f.client.Tail(ctx, epoch, offset, f.cfg.MaxBytes, f.cfg.PollWait)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.caughtUp.Store(false)
			f.reconnects.Add(1)
			f.logger.Warn("replica tail failed; retrying",
				slog.Duration("backoff", backoff), slog.Any("error", err))
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = minDuration(backoff*2, followerMaxBackoff)
			continue
		}
		backoff = f.cfg.RetryBackoff
		f.leaderEpoch.Store(res.LeaderEpoch)
		f.leaderDurable.Store(res.LeaderDurable)
		if res.Restart {
			f.logger.Info("leader signalled restart; re-syncing",
				slog.Uint64("epoch", epoch), slog.Int64("offset", offset))
			if !resync() {
				return
			}
			continue
		}
		if len(res.Data) > 0 {
			n, err := f.apply(res.Data)
			if err == nil && res.Sealed && n != int64(len(res.Data)) {
				err = errors.New("sealed epoch ends mid-frame")
			}
			if err != nil {
				f.caughtUp.Store(false)
				f.logger.Error("replica apply failed; re-syncing",
					slog.Uint64("epoch", epoch), slog.Int64("offset", offset), slog.Any("error", err))
				if !resync() {
					return
				}
				continue
			}
			offset += n
			setPos(epoch, offset)
			f.bytesApplied.Add(n)
		}
		if res.Sealed {
			// The epoch's final fence folded us to its successor version,
			// which names the next WAL file to tail.
			epoch, offset = f.Live().Version(), store.WALHeaderLen
			setPos(epoch, offset)
			continue
		}
		f.setCaughtUp(epoch == res.LeaderEpoch && offset >= res.LeaderDurable)
	}
}

func (f *Follower) setCaughtUp(cu bool) {
	if !cu {
		f.caughtUp.Store(false)
		return
	}
	f.lastCaughtUp.Store(time.Now().UnixNano())
	f.caughtUp.Store(true)
	f.ready.Store(true)
}

// apply replays raw WAL frames through the ingest path, folding at
// fences. Contiguous data records are batched per kind-category — the
// relative order of edges vs. item/action runs is preserved, and
// items precede the actions of their run, which is exactly the
// ordering contract the leader's accepted stream already satisfies.
// Returns the bytes consumed (a trailing partial frame is left for the
// next fetch). Any error means the replica can no longer prove it
// matches the leader and must re-bootstrap.
func (f *Follower) apply(data []byte) (int64, error) {
	recs, n, err := store.ParseWALRecords(data)
	if err != nil {
		return 0, err
	}
	ls := f.Live()
	var edges []stream.EdgeEvent
	var items []actionlog.Item
	var acts []actionlog.Action
	flushEdges := func() error {
		if len(edges) == 0 {
			return nil
		}
		err := ls.IngestEdges(edges)
		edges = edges[:0]
		return err
	}
	flushActs := func() error {
		if len(items)+len(acts) == 0 {
			return nil
		}
		err := ls.IngestActions(items, acts)
		items, acts = items[:0], acts[:0]
		return err
	}
	flushAll := func() error {
		if err := flushEdges(); err != nil {
			return err
		}
		return flushActs()
	}
	for _, rec := range recs {
		switch rec.Kind {
		case store.RecEdge:
			if err := flushActs(); err != nil {
				return 0, err
			}
			edges = append(edges, stream.EdgeEvent{
				Src: rec.Src, Dst: rec.Dst,
				SrcName: rec.SrcName, DstName: rec.DstName,
				Probs: rec.Probs,
			})
		case store.RecItem:
			if err := flushEdges(); err != nil {
				return 0, err
			}
			items = append(items, actionlog.Item{ID: rec.ItemID, Keywords: rec.Keywords})
		case store.RecAction:
			if err := flushEdges(); err != nil {
				return 0, err
			}
			acts = append(acts, actionlog.Action{User: rec.User, Item: rec.Item, Time: rec.Time})
		case store.RecFence:
			if err := flushAll(); err != nil {
				return 0, err
			}
			if err := f.applyFence(ls, rec.Version); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("repl: unknown WAL record kind %d", rec.Kind)
		}
		f.recordsQueued.Add(1)
	}
	if err := flushAll(); err != nil {
		return 0, err
	}
	return n, nil
}

// applyFence folds the replica at a leader checkpoint fence. The fence
// version must be the successor of the replica's current version —
// fences at or below it were already folded (a failed leader checkpoint
// leaves its fence in the next sealed file too), anything further ahead
// means records were skipped.
func (f *Follower) applyFence(ls *stream.LiveSystem, version uint64) error {
	cur := ls.Version()
	switch {
	case version == cur+1:
		if err := ls.ForceSnapshot(); err != nil {
			return fmt.Errorf("repl: fold at fence %d: %w", version, err)
		}
		if got := ls.Version(); got != version {
			return fmt.Errorf("repl: fold reached version %d, fence wants %d", got, version)
		}
		if st := ls.Stats(); st.Invalid > 0 {
			// The leader only logs records it accepted; a replica
			// rejecting any of them means the two no longer agree.
			return fmt.Errorf("repl: replica rejected %d leader records as invalid", st.Invalid)
		}
		f.folds.Add(1)
		return nil
	case version <= cur:
		return nil
	default:
		return fmt.Errorf("repl: fence %d skips past replica version %d", version, cur)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
