package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/bench"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/otim"
	"octopus/internal/repl"
	"octopus/internal/server"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// E19 — read-replica fleet: a durable leader checkpoints at every fold
// and followers mirror those checkpoints over /api/replicate. Three
// claims are measured:
//
//  1. bootstrap — a follower maps the shipped snapshot zero-copy (no
//     copy fallbacks asserted);
//  2. per-fold lag — for each leader fold of an edge-bearing delta, the
//     time from the leader's ForceSnapshot return (its checkpoint is on
//     disk) until the follower serves that version (median and p90 over
//     the folds), next to the snapshot bytes each fold ships and the WAL
//     bytes it wrote on the leader;
//  3. leader overhead — the leader's query p50 with two caught-up
//     followers long-polling vs with none, on an identical folded
//     system. The overhead must stay within 10% (plus a 500µs noise
//     floor for sub-millisecond medians).
const (
	e19OverheadRatio = 1.10
	e19NoiseFloor    = 500 * time.Microsecond
)

func runE19(e *env) error {
	dir, err := os.MkdirTemp("", "octopus-e19-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ds, err := datagen.Citation(datagen.CitationConfig{
		Authors: e.sizes.replAuthors, Topics: 6, Seed: e.seed ^ 0xe19,
	})
	if err != nil {
		return err
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		OTIM:             otim.BuildOptions{Samples: 12},
		Seed:             e.seed ^ 0x19e,
	})
	if err != nil {
		return err
	}
	d, _, err := store.Open(filepath.Join(dir, "leader"))
	if err != nil {
		return err
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{
		RebuildEvents: 1 << 20, IncrementalFold: true, Store: d,
	})
	if err != nil {
		return err
	}
	defer ls.Close()
	// The cache would answer repeated queries without running the engine,
	// hiding any replication overhead — disable it for the measurement.
	srv := server.NewLiveWith(ls, server.Options{CacheEntries: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// feed ingests one edge + one item + one action per unit through the
	// leader's synchronous ingest path.
	nodes := int32(sys.Graph().NumNodes())
	round := int32(0)
	feed := func(units int) error {
		for i := 0; i < units; i++ {
			r := round
			round++
			if err := ls.IngestEdges([]stream.EdgeEvent{{
				Src: r % 50, Dst: nodes + r, DstName: fmt.Sprintf("repl-user-%d", r),
			}}); err != nil {
				return err
			}
			item := 500_000 + r
			if err := ls.IngestActions(
				[]actionlog.Item{{ID: item, Keywords: []string{"mining", "graphs"}}},
				[]actionlog.Action{{User: r % 100, Item: item, Time: int64(1_000_000 + r)}},
			); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startFollower := func(name string) (*repl.Follower, error) {
		return repl.Start(ctx, repl.Config{
			Leader:       ts.URL,
			Dir:          filepath.Join(dir, name),
			PollWait:     2 * time.Second,
			RetryBackoff: 50 * time.Millisecond,
		})
	}
	// serves waits until the follower serves the leader's current version.
	serves := func(f *repl.Follower) error {
		want := ls.Version()
		deadline := time.Now().Add(60 * time.Second)
		for f.Version() != want {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower stuck at version %d, leader at %d: %+v", f.Version(), want, f.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
		return nil
	}

	// ---- 1. Bootstrap: the first checkpoint is the snapshot followers map.
	if err := feed(20); err != nil {
		return err
	}
	if err := ls.ForceSnapshot(); err != nil {
		return err
	}
	t0 := time.Now()
	f1, err := startFollower("follower-1")
	if err != nil {
		return err
	}
	defer f1.Close()
	if err := serves(f1); err != nil {
		return err
	}
	bootstrap := time.Since(t0)
	if ms := f1.MapStats(); ms.CopyFallbacks != 0 {
		return fmt.Errorf("%d copy fallbacks mapping the shipped snapshot", ms.CopyFallbacks)
	}
	f2, err := startFollower("follower-2")
	if err != nil {
		return err
	}
	defer f2.Close()
	if err := serves(f2); err != nil {
		return err
	}

	// ---- 2. Per-fold lag: leader ForceSnapshot return → follower serves it.
	bytes0, wal0 := f1.Stats().SnapshotBytes, d.WALBytesLogged()
	lags := make([]time.Duration, 0, e.sizes.replRounds)
	for i := 0; i < e.sizes.replRounds; i++ {
		if err := feed(20); err != nil {
			return err
		}
		if err := ls.ForceSnapshot(); err != nil {
			return err
		}
		t := time.Now()
		if err := serves(f1); err != nil {
			return err
		}
		lags = append(lags, time.Since(t))
		if err := serves(f2); err != nil {
			return err
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	lagP50 := lags[len(lags)/2]
	lagP90 := lags[len(lags)*9/10]
	folds := int64(e.sizes.replRounds)
	snapPerFold := (f1.Stats().SnapshotBytes - bytes0) / folds
	walPerFold := (d.WALBytesLogged() - wal0) / folds

	// ---- 3. Leader overhead: query p50 with two caught-up followers
	// long-polling vs none. No ingest happens inside the windows, so the
	// only difference is the parked replication traffic.
	queries := []string{"mining+data", "learning", "systems", "retrieval+information"}
	measureP50 := func() (time.Duration, error) {
		lat := make([]time.Duration, 0, e.sizes.replQueries)
		for i := 0; i < e.sizes.replQueries+10; i++ {
			q := queries[i%len(queries)]
			t := time.Now()
			resp, err := http.Get(ts.URL + "/api/im?q=" + q + "&k=10&samples=1")
			if err != nil {
				return 0, err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("leader query returned %d", resp.StatusCode)
			}
			if i >= 10 { // first 10 are warmup
				lat = append(lat, time.Since(t))
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], nil
	}
	p50With, err := measureP50()
	if err != nil {
		return err
	}
	if err := f1.Close(); err != nil {
		return err
	}
	if err := f2.Close(); err != nil {
		return err
	}
	p50Without, err := measureP50()
	if err != nil {
		return err
	}
	overhead := p50With.Seconds() / p50Without.Seconds()

	tab := bench.NewTable(
		"E19: read-replica fleet — bootstrap, per-fold lag, leader overhead (2 followers)",
		"metric", "value")
	tab.Row("bootstrap", fmt.Sprintf("%.1f MiB snapshot mapped in %s, backing zero-copy",
		float64(f1.MapStats().FileSize)/(1<<20), bootstrap.Round(time.Millisecond)))
	tab.Row("per-fold lag p50", lagP50.Round(10*time.Microsecond))
	tab.Row("per-fold lag p90", lagP90.Round(10*time.Microsecond))
	tab.Row("snapshot bytes shipped per fold", fmt.Sprintf("%.1f KiB", float64(snapPerFold)/1024))
	tab.Row("leader WAL bytes per fold (not shipped)", fmt.Sprintf("%.1f KiB", float64(walPerFold)/1024))
	tab.Row("leader query p50, 2 followers", p50With.Round(time.Microsecond))
	tab.Row("leader query p50, 0 followers", p50Without.Round(time.Microsecond))
	tab.Row("overhead", fmt.Sprintf("%.2f× (target ≤%.2f×)", overhead, e19OverheadRatio))
	tab.Render(e.out)

	e.record("bootstrap_ms", float64(bootstrap)/1e6)
	e.record("lag_p50_ms", float64(lagP50)/1e6)
	e.record("lag_p90_ms", float64(lagP90)/1e6)
	e.record("snapshot_bytes_per_fold", snapPerFold)
	e.record("wal_bytes_per_fold", walPerFold)
	e.record("leader_p50_with_followers_ms", float64(p50With)/1e6)
	e.record("leader_p50_without_followers_ms", float64(p50Without)/1e6)
	e.record("leader_overhead_ratio", overhead)

	if limit := time.Duration(float64(p50Without)*e19OverheadRatio) + e19NoiseFloor; p50With > limit {
		return fmt.Errorf("leader p50 with followers %s exceeds %s (%.0f%% of the bare p50 %s plus noise floor)",
			p50With, limit, e19OverheadRatio*100, p50Without)
	}
	return nil
}
