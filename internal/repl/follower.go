package repl

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// Config configures a Follower.
type Config struct {
	// Leader is the leader's base URL (e.g. "http://leader:8080").
	Leader string
	// Dir is the follower's local directory. It holds the mirrored
	// checkpoint (and any partial download), so a restarted follower
	// maps its own copy instead of re-downloading while the leader has
	// not checkpointed since.
	Dir string
	// HTTP optionally overrides the transport. It must not set a global
	// Timeout (status requests long-poll).
	HTTP *http.Client
	// PollWait is the long-poll budget per status request (default 10s).
	PollWait time.Duration
	// RetryBackoff is the initial reconnect backoff after a failed
	// request (default 200ms, doubling up to 10s).
	RetryBackoff time.Duration
	// Logger receives replication lifecycle events (nil discards).
	Logger *slog.Logger
}

// Stats is a point-in-time view of a follower.
type Stats struct {
	Leader   string `json:"leader"`
	Ready    bool   `json:"ready"`
	CaughtUp bool   `json:"caughtUp"`
	// LagMillis is how long the follower has known it is behind the
	// leader's latest checkpoint (0 while caught up).
	LagMillis       float64 `json:"lagMillis"`
	Version         uint64  `json:"version"`
	Reconnects      uint64  `json:"reconnects"`
	SnapshotFetches uint64  `json:"snapshotFetches"`
	SnapshotBytes   int64   `json:"snapshotBytes"`
	SnapshotResumes uint64  `json:"snapshotResumes"`
}

const followerMaxBackoff = 10 * time.Second

// generation is one mirrored checkpoint being served: the published
// snapshot, which holds the mapping's only reference, and the handle
// of the file it maps, kept for its stats.
type generation struct {
	snap   *stream.Snapshot
	mapped *store.Mapped
}

// Follower mirrors a leader's checkpoints: it long-polls the leader's
// status and, whenever the checkpoint version moves, downloads that
// snapshot, maps it in place (store.Map — zero-copy) and swaps it in.
// It never folds: a checkpoint version names one file, so at equal
// versions the follower serves the leader's bytes. Acquire is the
// serving handle.
type Follower struct {
	cfg    Config
	client *Client
	logger *slog.Logger

	cur atomic.Pointer[generation]

	ready atomic.Bool
	// behindSince is when the follower learned it is behind the leader
	// (unix nanos); 0 while it serves the leader's latest checkpoint.
	behindSince atomic.Int64

	reconnects      atomic.Uint64
	snapshotFetches atomic.Uint64
	snapshotBytes   atomic.Int64
	snapshotResumes atomic.Uint64

	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Start bootstraps a follower against cfg.Leader — retrying with
// backoff while the leader is unreachable, until ctx is cancelled — and
// launches the poll loop. The returned Follower is serving (possibly
// still behind; see Ready) and must be Closed.
func Start(ctx context.Context, cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, errors.New("repl: follower needs a leader URL")
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: follower needs a local directory")
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
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{
		cfg:    cfg,
		client: NewClient(cfg.Leader, cfg.HTTP),
		logger: cfg.Logger,
	}
	f.behindSince.Store(time.Now().UnixNano())
	backoff := cfg.RetryBackoff
	for {
		st, err := f.client.Status(ctx, 0, 0)
		if err == nil {
			err = f.mirror(ctx, st.SnapshotVersion)
		}
		if err == nil {
			if f.Version() == st.SnapshotVersion {
				f.setCaughtUp()
			}
			break
		}
		f.logger.Warn("replica bootstrap failed; retrying",
			slog.String("leader", cfg.Leader), slog.Duration("backoff", backoff), slog.Any("error", err))
		if !sleepCtx(ctx, backoff) {
			return nil, fmt.Errorf("repl: bootstrap aborted: %w", err)
		}
		backoff = min(backoff*2, followerMaxBackoff)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	f.wg.Add(1)
	go f.run(runCtx)
	return f, nil
}

// Acquire pins the generation the follower serves and returns its
// system and checkpoint version with a release callback, to be called
// exactly once. A swap only retires the generation it replaces; that
// mapping is unmapped after its last release.
func (f *Follower) Acquire() (*core.System, uint64, func()) {
	sn, rel := stream.Pin(f.current)
	return sn.Sys, sn.Version, rel
}

func (f *Follower) current() *stream.Snapshot { return f.cur.Load().snap }

// Version returns the checkpoint version the follower serves.
func (f *Follower) Version() uint64 { return f.current().Version }

// Leader returns the leader's base URL.
func (f *Follower) Leader() string { return f.cfg.Leader }

// Ready reports whether the follower has served the leader's latest
// checkpoint at least once — before that, its answers reflect an
// arbitrarily old snapshot and health should not report it servable.
func (f *Follower) Ready() bool { return f.ready.Load() }

// CaughtUp reports whether the follower serves the leader's latest
// checkpoint, as of the last status answer.
func (f *Follower) CaughtUp() bool { return f.behindSince.Load() == 0 }

// Lag returns how long the follower has known it is behind: 0 while
// caught up, else the time since it saw a newer leader checkpoint or
// lost the leader (or since Start, before the first catch-up). It feeds
// the serving layer's staleness objective, so a stalled or disconnected
// follower degrades health the same way a leader whose overlay outruns
// its folds does.
func (f *Follower) Lag() time.Duration {
	if b := f.behindSince.Load(); b != 0 {
		return time.Since(time.Unix(0, b))
	}
	return 0
}

func (f *Follower) setCaughtUp() {
	f.behindSince.Store(0)
	f.ready.Store(true)
}

func (f *Follower) setBehind() { f.behindSince.CompareAndSwap(0, time.Now().UnixNano()) }

// MapStats reports how the served checkpoint is backed (mmap vs heap
// fallback). It samples under a pin on the current generation, so the
// mapping it reads cannot be unmapped mid-call.
func (f *Follower) MapStats() store.MapStats {
	for {
		g := f.cur.Load()
		sn, release := stream.Pin(f.current)
		if sn == g.snap {
			defer release()
			return g.mapped.Stats()
		}
		release() // a swap raced the pin; sample its successor
	}
}

// Stats assembles the follower's replication counters.
func (f *Follower) Stats() Stats {
	return Stats{
		Leader:          f.cfg.Leader,
		Ready:           f.ready.Load(),
		CaughtUp:        f.CaughtUp(),
		LagMillis:       float64(f.Lag()) / 1e6,
		Version:         f.Version(),
		Reconnects:      f.reconnects.Load(),
		SnapshotFetches: f.snapshotFetches.Load(),
		SnapshotBytes:   f.snapshotBytes.Load(),
		SnapshotResumes: f.snapshotResumes.Load(),
	}
}

// Close stops the poll loop and retires the served generation: its
// mapping is unmapped once the last pinned reader releases, so stop
// serving before calling Close. The mirrored checkpoint stays in Dir
// for the next Start.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.stop()
		f.wg.Wait()
		f.cur.Load().snap.Retire()
	})
	return nil
}

// run is the poll loop: long-poll the leader's status after the served
// version and mirror every checkpoint version it reports.
func (f *Follower) run(ctx context.Context) {
	defer f.wg.Done()
	backoff := f.cfg.RetryBackoff
	var wait time.Duration // 0: ask at once, don't park
	for ctx.Err() == nil {
		cur := f.Version()
		st, err := f.client.Status(ctx, cur, wait)
		if err == nil && st.SnapshotVersion == cur {
			f.setCaughtUp()
			backoff = f.cfg.RetryBackoff
			wait = f.cfg.PollWait
			continue
		}
		if err == nil {
			f.setBehind()
			err = f.mirror(ctx, st.SnapshotVersion)
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.setBehind()
			f.reconnects.Add(1)
			f.logger.Warn("replica poll failed; retrying",
				slog.Duration("backoff", backoff), slog.Any("error", err))
			if !sleepCtx(ctx, backoff) {
				return
			}
			backoff = min(backoff*2, followerMaxBackoff)
		}
		// After a swap (or a failure), ask again without parking: the
		// answer says whether the follower caught up.
		wait = 0
	}
}

// mirror makes the follower serve checkpoint version want: it reuses
// the local copy when that already holds want (a restart against an
// unchanged leader), downloads the leader's snapshot otherwise, maps it
// with store.Map and swaps it in.
func (f *Follower) mirror(ctx context.Context, want uint64) error {
	start := time.Now()
	path := store.SnapshotPathIn(f.cfg.Dir)
	version, err := store.PeekVersion(path)
	if err != nil || version != want {
		v, n, resumed, err := f.client.FetchSnapshot(ctx, path)
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
		version = v
	}
	if g := f.cur.Load(); g != nil && g.snap.Version == version {
		return fmt.Errorf("repl: leader advertises checkpoint %d but ships %d, which is already served", want, version)
	}
	sys, m, err := store.Map(path, store.MapOptions{})
	if err != nil {
		os.Remove(path) // fetch a fresh copy next round instead of re-mapping this one
		return fmt.Errorf("repl: map snapshot: %w", err)
	}
	f.publish(sys, m, version, time.Since(start))
	return nil
}

// publish swaps a mapped checkpoint in. The new snapshot takes its own
// reference on the mapping and the handle's is dropped, so each
// generation's mapping lives exactly as long as its snapshot: retired
// by the next swap, unmapped by its last reader.
func (f *Follower) publish(sys *core.System, m *store.Mapped, version uint64, took time.Duration) {
	g := &generation{snap: stream.NewSnapshot(sys, version, took), mapped: m}
	m.Close()
	if old := f.cur.Swap(g); old != nil {
		old.snap.Retire()
	}
	f.logger.Info("replica serving",
		slog.Uint64("version", version), slog.String("backing", m.Stats().Backing),
		slog.Duration("took", took))
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
