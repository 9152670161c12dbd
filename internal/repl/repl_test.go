package repl_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/arena"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/repl"
	"octopus/internal/store"
	"octopus/internal/stream"
)

func buildBase(tb testing.TB, authors int, seed uint64) *core.System {
	tb.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: authors, Topics: 4, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             seed ^ 0xabc,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// leader bundles a durable live system behind an httptest replication
// endpoint whose Source is swapped when the leader crash-restarts.
type leader struct {
	tb    testing.TB
	dir   string
	ls    *stream.LiveSystem
	src   atomic.Pointer[repl.Source]
	srv   *httptest.Server
	nodes graph.NodeID // base node count, for feeding fresh endpoints
}

func newLeader(tb testing.TB, sys *core.System) *leader {
	l := &leader{tb: tb, dir: tb.TempDir(), nodes: graph.NodeID(sys.Graph().NumNodes())}
	l.open(sys)
	l.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.src.Load().ServeHTTP(w, r)
	}))
	tb.Cleanup(func() {
		l.srv.Close()
		l.ls.Kill()
		_ = l.ls.Store().Close()
	})
	return l
}

func (l *leader) open(fallback *core.System) {
	l.tb.Helper()
	d, res, err := store.Open(l.dir)
	if err != nil {
		l.tb.Fatal(err)
	}
	sys := fallback
	if res != nil && res.Sys != nil {
		sys = res.Sys
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{Store: d, RebuildEvents: 1 << 20, IncrementalFold: true})
	if err != nil {
		l.tb.Fatal(err)
	}
	src, err := repl.NewSource(ls)
	if err != nil {
		l.tb.Fatal(err)
	}
	l.ls = ls
	l.src.Store(src)
}

// crashRestart kills the leader mid-stream and reopens it through
// recovery, which compacts any WAL tail into a new checkpoint version.
func (l *leader) crashRestart() {
	l.tb.Helper()
	l.ls.Kill()
	if err := l.ls.Store().Close(); err != nil {
		l.tb.Fatal(err)
	}
	l.open(nil)
}

// feed ingests one round of events: an edge to a brand-new node, a new
// item, and an action on it by an existing user.
func feed(tb testing.TB, l *leader, round int) {
	tb.Helper()
	src := graph.NodeID(round % 20)
	dst := l.nodes + graph.NodeID(round)
	if err := l.ls.IngestEdges([]stream.EdgeEvent{
		{Src: src, Dst: dst, DstName: fmt.Sprintf("user-%d", round)},
	}); err != nil {
		tb.Fatal(err)
	}
	id := int32(10_000 + round)
	err := l.ls.IngestActions(
		[]actionlog.Item{{ID: id, Keywords: []string{"mining", "graphs"}}},
		[]actionlog.Action{{User: src, Item: id, Time: int64(1000 + round)}},
	)
	if err != nil {
		tb.Fatal(err)
	}
}

func force(tb testing.TB, ls *stream.LiveSystem) {
	tb.Helper()
	if err := ls.ForceSnapshot(); err != nil {
		tb.Fatal(err)
	}
}

func waitFor(tb testing.TB, d time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// fingerprint serializes the answers a server would produce from sys —
// stats plus exact influence queries — for byte-identical comparison.
func fingerprint(tb testing.TB, sys *core.System) string {
	tb.Helper()
	var sb strings.Builder
	b, err := json.Marshal(sys.Stats())
	if err != nil {
		tb.Fatal(err)
	}
	sb.Write(b)
	for _, q := range [][]string{{"mining", "data"}, {"learning"}} {
		r, err := sys.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err != nil {
			tb.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		sb.Write(b)
	}
	return sb.String()
}

func startFollower(tb testing.TB, leaderURL, dir string) *repl.Follower {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := repl.Start(ctx, repl.Config{
		Leader:       leaderURL,
		Dir:          dir,
		PollWait:     200 * time.Millisecond,
		RetryBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if t, ok := tb.(*testing.T); ok {
		t.Cleanup(func() { _ = f.Close() }) // idempotent; leak guard
	}
	return f
}

// checkpoint returns the leader's latest checkpoint version — the one
// a caught-up follower serves.
func (l *leader) checkpoint() uint64 { return l.ls.Store().LastCheckpointVersion() }

// converged waits until the follower serves the leader's latest
// checkpoint and knows it.
func converged(tb testing.TB, f *repl.Follower, l *leader) {
	tb.Helper()
	waitFor(tb, 20*time.Second, "follower convergence", func() bool {
		return f.CaughtUp() && f.Version() == l.checkpoint()
	})
}

// served fingerprints the generation the follower serves, under a pin.
func served(tb testing.TB, f *repl.Follower) string {
	tb.Helper()
	sys, _, release := f.Acquire()
	defer release()
	return fingerprint(tb, sys)
}

// assertMirrors checks the follower serves the leader's current version
// with byte-identical answers.
func assertMirrors(tb testing.TB, f *repl.Follower, l *leader) {
	tb.Helper()
	if fv, lv := f.Version(), l.ls.Version(); fv != lv {
		tb.Fatalf("follower serves version %d, leader %d", fv, lv)
	}
	if got, want := served(tb, f), fingerprint(tb, l.ls.System()); got != want {
		tb.Fatalf("answers diverge at version %d:\n got %s\nwant %s", f.Version(), got, want)
	}
}

func TestFollowerBootstrapConverges(t *testing.T) {
	sys := buildBase(t, 150, 7)
	l := newLeader(t, sys)
	for r := 0; r < 5; r++ {
		feed(t, l, r)
	}
	force(t, l.ls) // v2
	for r := 5; r < 8; r++ {
		feed(t, l, r) // an unfenced tail the follower never sees
	}
	if err := l.ls.Flush(); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, l.srv.URL, t.TempDir())
	defer f.Close()
	converged(t, f, l)
	if v := f.Version(); v != 2 {
		t.Fatalf("follower version = %d, want 2", v)
	}
	assertMirrors(t, f, l)
	// Bootstrap must be zero-copy on the happy path.
	ms := f.MapStats()
	if ms.CopyFallbacks != 0 {
		t.Fatalf("bootstrap mapping had %d copy fallbacks", ms.CopyFallbacks)
	}
	if os.Getenv("OCTOPUS_MMAP") != "off" && ms.Backing != "mmap" {
		t.Fatalf("bootstrap backing = %q, want mmap", ms.Backing)
	}
	if st := f.Stats(); st.SnapshotFetches != 1 || !st.Ready {
		t.Fatalf("after bootstrap: %+v, want 1 fetch and ready", st)
	}
	if lag := f.Lag(); lag != 0 {
		t.Fatalf("caught-up follower reports lag %v", lag)
	}

	// Every later leader checkpoint reaches the follower as one fetch.
	for want := uint64(3); want <= 4; want++ {
		feed(t, l, int(want)*10)
		force(t, l.ls)
		converged(t, f, l)
		if v := f.Version(); v != want {
			t.Fatalf("follower version = %d, want %d", v, want)
		}
		assertMirrors(t, f, l)
		if st := f.Stats(); st.SnapshotFetches != want-1 {
			t.Fatalf("snapshot fetches = %d at version %d, want %d", st.SnapshotFetches, want, want-1)
		}
	}
}

func TestFollowerRestartResumesWithoutRefetch(t *testing.T) {
	sys := buildBase(t, 150, 9)
	l := newLeader(t, sys)
	for r := 0; r < 4; r++ {
		feed(t, l, r)
	}
	force(t, l.ls) // v2
	fdir := t.TempDir()
	f := startFollower(t, l.srv.URL, fdir)
	converged(t, f, l)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader has not checkpointed since: the restart maps the local
	// copy and fetches nothing.
	f2 := startFollower(t, l.srv.URL, fdir)
	converged(t, f2, l)
	if st := f2.Stats(); st.SnapshotFetches != 0 {
		t.Fatalf("restart against an unchanged leader fetched %d snapshots, want 0", st.SnapshotFetches)
	}
	assertMirrors(t, f2, l)
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// Three checkpoints later the restart fetches once: the newest.
	for r := 4; r < 7; r++ {
		feed(t, l, r)
		force(t, l.ls)
	}
	f3 := startFollower(t, l.srv.URL, fdir)
	defer f3.Close()
	converged(t, f3, l)
	if st := f3.Stats(); st.SnapshotFetches != 1 || st.Version != 5 {
		t.Fatalf("restart 3 checkpoints behind: %d fetches at version %d, want 1 at 5", st.SnapshotFetches, st.Version)
	}
	assertMirrors(t, f3, l)
}

// TestLeaderCrashRestartConverges crashes the leader with a WAL tail.
// Recovery compacts the tail into a new checkpoint version, which the
// follower mirrors like any other: no restart signal, same bytes.
func TestLeaderCrashRestartConverges(t *testing.T) {
	sys := buildBase(t, 150, 11)
	l := newLeader(t, sys)
	for r := 0; r < 4; r++ {
		feed(t, l, r)
	}
	force(t, l.ls) // v2
	f := startFollower(t, l.srv.URL, t.TempDir())
	defer f.Close()
	converged(t, f, l)

	for r := 4; r < 7; r++ {
		feed(t, l, r)
	}
	if err := l.ls.Flush(); err != nil {
		t.Fatal(err)
	}
	l.crashRestart()
	if v := l.checkpoint(); v != 3 {
		t.Fatalf("recovered leader checkpoint = %d, want 3 (compacted tail)", v)
	}
	converged(t, f, l)
	assertMirrors(t, f, l)
	if st := f.Stats(); st.SnapshotFetches != 2 {
		t.Fatalf("snapshot fetches = %d after the leader restart, want 2", st.SnapshotFetches)
	}
}

// TestFollowerKillRestartSoak streams continuously while the leader
// checkpoints and the follower is killed and restarted mid-stream on
// its own directory. It ends by asserting byte-identical answers at the
// same version.
func TestFollowerKillRestartSoak(t *testing.T) {
	sys := buildBase(t, 150, 13)
	l := newLeader(t, sys)
	fdir := t.TempDir()
	f := startFollower(t, l.srv.URL, fdir)

	const rounds = 30
	for r := 0; r < rounds; r++ {
		feed(t, l, r)
		if r%5 == 4 {
			force(t, l.ls)
		}
		if r == 9 || r == 19 {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			f = startFollower(t, l.srv.URL, fdir)
		}
		time.Sleep(2 * time.Millisecond)
	}
	force(t, l.ls)
	converged(t, f, l)
	defer f.Close()
	if !f.Ready() {
		t.Fatal("follower not ready after convergence")
	}
	assertMirrors(t, f, l)
}

// TestSwapReleasesRetiredMappings runs concurrent readers across several
// checkpoint swaps (the -race soak of the follower's pin/retire path)
// and then checks no generation leaked its mapping: each retired one is
// fully released, and the served one holds exactly its snapshot's
// reference.
func TestSwapReleasesRetiredMappings(t *testing.T) {
	if os.Getenv("OCTOPUS_MMAP") == "off" {
		t.Skip("heap-backed snapshots hold no mapping reference")
	}
	sys := buildBase(t, 150, 15)
	l := newLeader(t, sys)
	f := startFollower(t, l.srv.URL, t.TempDir())
	defer f.Close()

	var mu sync.Mutex
	seen := map[*arena.Mapping]bool{}
	note := func(cur *core.System) {
		m, ok := cur.Backing().(*arena.Mapping)
		if !ok {
			t.Error("served snapshot has no mapped backing")
			return
		}
		mu.Lock()
		seen[m] = true
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, _, release := f.Acquire()
				note(cur)
				if _, err := cur.DiscoverInfluencers([]string{"mining"}, core.DiscoverOptions{K: 3}); err != nil {
					t.Error(err)
				}
				release()
			}
		}()
	}

	const swaps = 6
	for r := 0; r < swaps; r++ {
		feed(t, l, r)
		force(t, l.ls)
		converged(t, f, l)
		cur, _, release := f.Acquire()
		note(cur)
		release()
	}
	close(stop)
	wg.Wait()

	cur, _, release := f.Acquire()
	current := cur.Backing().(*arena.Mapping)
	release()
	if len(seen) != swaps+1 {
		t.Fatalf("readers saw %d generations, want %d", len(seen), swaps+1)
	}
	for m := range seen {
		want := int64(0)
		if m == current {
			want = 1
		}
		if got := m.Refs(); got != want {
			t.Errorf("mapping refs = %d, want %d (current: %v)", got, want, m == current)
		}
	}
}

// TestStatusLongPoll pins the status long-poll: a request parked after
// the current version returns as soon as a checkpoint lands, and at
// wait_ms when none does.
func TestStatusLongPoll(t *testing.T) {
	sys := buildBase(t, 150, 19)
	l := newLeader(t, sys)
	c := repl.NewClient(l.srv.URL, nil)
	ctx := context.Background()
	v := l.checkpoint()

	type answer struct {
		st  repl.Status
		err error
		at  time.Time
	}
	got := make(chan answer, 1)
	go func() {
		st, err := c.Status(ctx, v, 20*time.Second)
		got <- answer{st, err, time.Now()}
	}()
	time.Sleep(100 * time.Millisecond)
	feed(t, l, 0)
	force(t, l.ls)
	landed := time.Now()
	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.st.SnapshotVersion != v+1 {
		t.Fatalf("long-poll answered version %d, want %d", a.st.SnapshotVersion, v+1)
	}
	if d := a.at.Sub(landed); d > time.Second {
		t.Fatalf("long-poll answered %v after the checkpoint landed", d)
	}

	start := time.Now()
	st, err := c.Status(ctx, v+1, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 5*time.Second {
		t.Fatalf("idle long-poll returned after %v, want ≈150ms", d)
	}
	if st.SnapshotVersion != v+1 {
		t.Fatalf("idle long-poll answered version %d, want %d", st.SnapshotVersion, v+1)
	}

	// A follower already behind gets its answer without parking.
	start = time.Now()
	if _, err := c.Status(ctx, v, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("behind follower parked %v", d)
	}
}

func TestFetchSnapshotResume(t *testing.T) {
	sys := buildBase(t, 150, 17)
	l := newLeader(t, sys)
	want, err := os.ReadFile(store.SnapshotPathIn(l.dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4096 {
		t.Fatalf("snapshot too small to test resume: %d bytes", len(want))
	}
	ctx := context.Background()
	c := repl.NewClient(l.srv.URL, nil)
	dest := filepath.Join(t.TempDir(), "snap.oct")

	// A partial file from an interrupted fetch resumes via Range.
	if err := os.WriteFile(dest+".partial", want[:1024], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest+".partial.version", []byte("1"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, n, resumed, err := c.FetchSnapshot(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed || v != 1 || n != int64(len(want))-1024 {
		t.Fatalf("resume: v=%d n=%d resumed=%v (snapshot %d bytes)", v, n, resumed, len(want))
	}
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("resumed download differs from the leader's snapshot")
	}

	// A partial belonging to a superseded snapshot version restarts
	// from zero instead of splicing incompatible bytes.
	if err := os.WriteFile(dest+".partial", want[:512], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest+".partial.version", []byte("999"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, n, resumed, err = c.FetchSnapshot(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || v != 1 || n != int64(len(want)) {
		t.Fatalf("stale resume: v=%d n=%d resumed=%v", v, n, resumed)
	}
	if got, _ := os.ReadFile(dest); string(got) != string(want) {
		t.Fatal("refetched download differs from the leader's snapshot")
	}
}

// BenchmarkFollowerFoldLag measures checkpoint mirroring end to end.
// Each iteration is one leader fold of an edge-bearing delta (20 feed
// rounds, then ForceSnapshot, which returns once the checkpoint is on
// disk) followed by the wait until the follower serves that version.
// Reported per fold: the p50 lag from ForceSnapshot's return to the
// follower serving the version, the snapshot bytes the follower
// fetched, and the WAL bytes the leader wrote (which are not shipped).
func BenchmarkFollowerFoldLag(b *testing.B) {
	const roundsPerFold = 20
	l := newLeader(b, buildBase(b, 800, 19))
	f := startFollower(b, l.srv.URL, b.TempDir())
	defer f.Close()
	converged(b, f, l)

	snap0, wal0 := f.Stats().SnapshotBytes, l.ls.Store().WALBytesLogged()
	lags := make([]time.Duration, 0, b.N)
	round := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range roundsPerFold {
			feed(b, l, round)
			round++
		}
		b.StartTimer()
		force(b, l.ls)
		landed, want := time.Now(), l.ls.Version()
		for f.Version() != want {
			if time.Since(landed) > 60*time.Second {
				b.Fatalf("follower stuck at version %d, leader at %d: %+v", f.Version(), want, f.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
		lags = append(lags, time.Since(landed))
	}
	b.StopTimer()

	slices.Sort(lags)
	folds := float64(b.N)
	b.ReportMetric(float64(lags[len(lags)/2])/1e6, "p50-lag-ms")
	b.ReportMetric(float64(f.Stats().SnapshotBytes-snap0)/folds, "snapshot-B/fold")
	b.ReportMetric(float64(l.ls.Store().WALBytesLogged()-wal0)/folds, "wal-B/fold")
}
