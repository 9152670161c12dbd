package stream

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/store"
)

// scriptRecords renders batches lo..hi of an event script as the
// records the ingest queue carries, edge batches included or not.
func scriptRecords(s *eventScript, lo, hi int, edges bool) []store.Record {
	var recs []store.Record
	for b := lo; b < hi; b++ {
		if edges {
			recs = append(recs, edgeRecords(s.edgeBatches[b])...)
		}
		recs = append(recs, actionRecords([]actionlog.Item{s.itemBatches[b]}, s.actBatches[b])...)
	}
	return recs
}

// applyLive applies fresh copies of recs as the live path does and
// returns the accepted ones, as the WAL would hold them.
func applyLive(st *state, recs []store.Record, now time.Time) []store.Record {
	var logged []store.Record
	for _, rec := range recs {
		if st.apply(&rec, now) {
			logged = append(logged, rec)
		}
	}
	return logged
}

func foldBytes(t *testing.T, st *state, cfg *Config, version uint64) (*core.System, []byte) {
	t.Helper()
	sys, _, err := st.fold(cfg, version)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Write(&buf, sys, version); err != nil {
		t.Fatal(err)
	}
	return sys, buf.Bytes()
}

// TestStateReplayMatchesLive: one record sequence, applied live and
// then replayed from what the live run logged, folds to byte-identical
// snapshots across two generations — for an edge-bearing and an
// action-only second delta, with and without incremental folds.
func TestStateReplayMatchesLive(t *testing.T) {
	const batches, mid = 8, 4
	base, _ := buildBase(t, 200, 63)
	script := makeScript(base, 0xfeed, batches)
	t0 := time.Unix(1700000000, 0)
	for _, edges := range []bool{true, false} {
		for _, incremental := range []bool{true, false} {
			t.Run(fmt.Sprintf("edges=%v/incremental=%v", edges, incremental), func(t *testing.T) {
				cfg := &Config{IncrementalFold: incremental}
				live := newState(base)
				first := scriptRecords(script, 0, mid, true)
				// Rejected records never reach the log: a self loop, a
				// re-sent edge and item, an action on an unknown item.
				first = append(first, first[0], store.Record{Kind: store.RecEdge, Src: 2, Dst: 2},
					store.Record{Kind: store.RecAction, User: 0, Item: 1 << 30})
				first = append(first, actionRecords([]actionlog.Item{script.itemBatches[0]}, nil)...)
				logged1 := applyLive(live, first, t0)
				liveSys, live1 := foldBytes(t, live, cfg, 2)
				live.retire(liveSys)
				logged2 := applyLive(live, scriptRecords(script, mid, batches, edges), t0)
				_, live2 := foldBytes(t, live, cfg, 3)

				replayed := newState(base)
				replayed.replay(logged1, t0)
				if replayed.applied != uint64(len(logged1)) || replayed.invalid != 0 || replayed.duplicates != 0 {
					t.Fatalf("replay counts: applied %d invalid %d duplicates %d, want %d 0 0",
						replayed.applied, replayed.invalid, replayed.duplicates, len(logged1))
				}
				if live.invalid == 0 || live.duplicates < 2 {
					t.Fatalf("live counts: invalid %d duplicates %d", live.invalid, live.duplicates)
				}
				replayedSys, replay1 := foldBytes(t, replayed, cfg, 2)
				if !bytes.Equal(live1, replay1) {
					t.Fatalf("generation 2: replayed fold (%d bytes) differs from live (%d bytes)", len(replay1), len(live1))
				}
				// A restart over the replayed generation replays the next tail.
				restarted := newState(replayedSys)
				restarted.replay(logged2, t0)
				if _, replay2 := foldBytes(t, restarted, cfg, 3); !bytes.Equal(live2, replay2) {
					t.Fatalf("generation 3: replayed fold (%d bytes) differs from live (%d bytes)", len(replay2), len(live2))
				}
			})
		}
	}
}

// TestStateApply: validation, dedup and priors per record, the
// staleness clock on the caller's time, and retire moving the folded
// delta into the base.
func TestStateApply(t *testing.T) {
	base, _ := buildBase(t, 120, 65)
	n := graph.NodeID(base.Graph().NumNodes())
	st := newState(base)
	t0 := time.Unix(1700000000, 0)
	if st.staleness(t0) != 0 {
		t.Fatal("empty state reports staleness")
	}

	edge := store.Record{Kind: store.RecEdge, Src: 0, Dst: n}
	if !st.apply(&edge, t0) {
		t.Fatal("edge to a new node rejected")
	}
	if want := weightedJaccardPrior(base, 0, n); !slices.Equal(edge.Probs, want) {
		t.Fatalf("live edge prior = %v, want %v", edge.Probs, want)
	}
	logged := store.Record{Kind: store.RecEdge, Src: 1, Dst: n, Probs: []float64{0.25, 0, 0, 0}}
	if !st.apply(&logged, t0.Add(time.Second)) || logged.Probs[0] != 0.25 {
		t.Fatalf("logged edge prior rewritten: %v", logged.Probs)
	}
	item := maxItemID(base.ActionLog()) + 1
	for _, rec := range []store.Record{
		{Kind: store.RecEdge, Src: 0, Dst: n},                                   // duplicate of the overlay
		{Kind: store.RecEdge, Src: 1, Dst: n, Probs: []float64{0.5, 0.5, 0, 0}}, // replayed duplicate, other prior
		{Kind: store.RecEdge, Src: 3, Dst: graph.NodeID(st.maxNodes)},           // beyond the cap
		{Kind: store.RecFence, Version: 9},                                      // not an ingest record
		{Kind: store.RecItem, ItemID: -1},                                       // invalid id
		{Kind: store.RecAction, User: n + 1, Item: item},                        // user past the grown graph
		{Kind: store.RecItem, ItemID: item, Keywords: []string{"x"}},
		{Kind: store.RecAction, User: n, Item: item, Time: 4}, // the new node may act
	} {
		st.apply(&rec, t0.Add(2*time.Second))
	}
	if st.applied != 4 || st.invalid != 4 || st.duplicates != 2 || st.ov.events != 4 {
		t.Fatalf("counts: applied %d invalid %d duplicates %d pending %d", st.applied, st.invalid, st.duplicates, st.ov.events)
	}
	if got := st.ov.edges[edgeKey{1, n}]; !slices.Equal(got, []float64{0.25, 0, 0, 0}) {
		t.Fatalf("a re-sent edge replaced the stored prior: %v", got)
	}
	if got := st.staleness(t0.Add(5 * time.Second)); got != 5*time.Second {
		t.Fatalf("staleness = %v, want 5s from the oldest record", got)
	}

	sys, incremental, err := st.fold(&Config{IncrementalFold: true}, 2)
	if err != nil || incremental {
		t.Fatalf("edge fold: incremental %v, err %v", incremental, err)
	}
	baseLen := len(st.baseItems)
	st.retire(sys)
	if st.base != sys || st.ov.events != 0 || len(st.itemIDs) != 0 || len(st.baseItems) != baseLen+1 {
		t.Fatalf("retire left base %v, pending %d, overlay items %d, base tier %d (was %d)",
			st.base == sys, st.ov.events, len(st.itemIDs), len(st.baseItems), baseLen)
	}
	if st.staleness(t0.Add(time.Hour)) != 0 {
		t.Fatal("retired state reports staleness")
	}
	resent := store.Record{Kind: store.RecItem, ItemID: item}
	again := store.Record{Kind: store.RecEdge, Src: 0, Dst: n}
	if st.apply(&resent, t0) || st.apply(&again, t0) || st.duplicates != 4 {
		t.Fatalf("folded item and edge not deduplicated: duplicates %d", st.duplicates)
	}
}
