package stream

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/store"
)

// mapBase persists the built system and reopens it through the mapped
// path, so the stream tests run against arrays aliasing a mapped file.
func mapBase(t *testing.T, sys *core.System) (*core.System, *store.Mapped) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.oct")
	if err := store.Save(path, sys); err != nil {
		t.Fatal(err)
	}
	mapped, m, err := store.Map(path, store.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return mapped, m
}

// TestMappedBaseFoldSwapSoak is the unmap-after-last-pin property test:
// folds and snapshot swaps run against a base system whose arrays alias
// a mapped snapshot file, while concurrent readers pin and query every
// generation. The mapping must stay referenced as long as any pinned
// reader or live generation can reach it, and must drain to exactly
// zero references — i.e. actually munmap — once the live system is
// closed and the owning handle released. Run under -race, this is also
// the data-race soak for the pin/retire protocol.
func TestMappedBaseFoldSwapSoak(t *testing.T) {
	base, _ := buildBase(t, 200, 11)
	sys, m := mapBase(t, base)
	mapping := m.Mapping()
	if !mapping.Mapped() {
		m.Close()
		t.Skip("mmap unavailable on this platform")
	}

	ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				cur, version, rel := ls.Acquire()
				g := cur.Graph()
				// Touch mapped arrays: degree scan plus an influence
				// query every few iterations.
				deg := 0
				for u := 0; u < g.NumNodes(); u += 7 {
					deg += g.OutDegree(graph.NodeID(u))
				}
				if deg < 0 {
					t.Error("negative degree sum")
				}
				if r == 0 {
					if _, err := cur.DiscoverInfluencers([]string{"mining"}, core.DiscoverOptions{K: 3}); err != nil {
						t.Errorf("query on generation %d: %v", version, err)
					}
				}
				rel()
			}
		}(r)
	}

	// Fold repeatedly while the readers churn. Each fold publishes a new
	// generation (heap arrays + propagated backing) and retires the old.
	itemID := maxItemID(sys.ActionLog()) + 1
	for i := 0; i < 8; i++ {
		if err := ls.IngestActions(
			[]actionlog.Item{{ID: itemID, Keywords: []string{"mining"}}},
			[]actionlog.Action{{User: int32(i % 50), Item: itemID, Time: int64(i + 1)}},
		); err != nil {
			t.Fatal(err)
		}
		itemID++
		if err := ls.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
		if refs := mapping.Refs(); refs < 1 {
			t.Fatalf("fold %d: mapping refs = %d while generations are live", i, refs)
		}
	}

	stop.Store(true)
	wg.Wait()
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if refs := mapping.Refs(); refs != 0 {
		t.Fatalf("mapping refs = %d after close; the file was never unmapped", refs)
	}
}

// TestMappedBaseQueryIdentity pins the serving contract: a fold over a
// mapped base produces exactly the results a fold over a heap-decoded
// base does.
func TestMappedBaseQueryIdentity(t *testing.T) {
	base, _ := buildBase(t, 200, 13)
	mappedSys, m := mapBase(t, base)
	defer m.Close()

	run := func(sys *core.System) *core.DiscoverResult {
		ls, err := NewLiveSystem(sys, Config{RebuildEvents: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
		itemID := maxItemID(sys.ActionLog()) + 1
		if err := ls.IngestActions(
			[]actionlog.Item{{ID: itemID, Keywords: []string{"mining", "data"}}},
			[]actionlog.Action{{User: 3, Item: itemID, Time: 5}, {User: 9, Item: itemID, Time: 9}},
		); err != nil {
			t.Fatal(err)
		}
		if err := ls.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
		res, err := ls.System().DiscoverInfluencers([]string{"mining"}, core.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	heapRes := run(base)
	mapRes := run(mappedSys)
	if len(heapRes.Seeds) != len(mapRes.Seeds) {
		t.Fatalf("seed counts differ: %d vs %d", len(heapRes.Seeds), len(mapRes.Seeds))
	}
	for i := range heapRes.Seeds {
		if heapRes.Seeds[i].User != mapRes.Seeds[i].User || heapRes.Seeds[i].Spread != mapRes.Seeds[i].Spread {
			t.Fatalf("seed %d differs: %+v vs %+v", i, heapRes.Seeds[i], mapRes.Seeds[i])
		}
	}
}
