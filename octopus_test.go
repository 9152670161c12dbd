package octopus_test

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"octopus"
	"octopus/internal/tags"
)

// End-to-end integration tests over the public API only.

var (
	e2eOnce sync.Once
	e2eSys  *octopus.System
	e2eDS   *octopus.Dataset
	e2eErr  error
)

func e2e(t testing.TB) (*octopus.System, *octopus.Dataset) {
	e2eOnce.Do(func() {
		e2eDS, e2eErr = octopus.GenerateCitation(octopus.CitationConfig{
			Authors: 600, Topics: 4, Papers: 900, Seed: 99,
		})
		if e2eErr != nil {
			return
		}
		e2eSys, e2eErr = octopus.Build(e2eDS.Graph, e2eDS.Log, octopus.Config{
			GroundTruth:      e2eDS.Truth,
			GroundTruthWords: e2eDS.TruthWords,
			TopicNames:       e2eDS.TopicNames,
			Seed:             5,
		})
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eSys, e2eDS
}

func TestEndToEndScenario1(t *testing.T) {
	sys, _ := e2e(t)
	res, err := sys.DiscoverInfluencers([]string{"mining", "clustering"},
		octopus.DiscoverOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 {
		t.Fatalf("seeds = %d", len(res.Seeds))
	}
	// Diversity observation: influence maximization should return seeds
	// with non-overlapping influence rather than ten copies of the same
	// hub; verify at least some aspect diversity OR spread growth.
	if res.Seeds[9].Spread <= res.Seeds[0].Spread {
		t.Fatalf("no marginal growth across seeds: %+v", res.Seeds)
	}
}

func TestEndToEndScenario2(t *testing.T) {
	sys, _ := e2e(t)
	// Choose the hub as target (most likely to be influential).
	var target octopus.NodeID
	best := -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if d := sys.Graph().OutDegree(octopus.NodeID(u)); d > best &&
			len(sys.UserKeywords(octopus.NodeID(u))) >= 3 {
			best, target = d, octopus.NodeID(u)
		}
	}
	if best < 0 {
		t.Skip("no suitable target")
	}
	sug, err := sys.SuggestKeywords(target, 3, tags.SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sug.Stats.PrunedByUpperBound && len(sug.Keywords) == 0 {
		t.Fatalf("no suggestion: %+v", sug)
	}
	if len(sug.Keywords) > 0 {
		radar, err := sys.Radar(sug.Keywords[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := radar.Values.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndToEndScenario3(t *testing.T) {
	sys, _ := e2e(t)
	var root octopus.NodeID
	best := -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if d := sys.Graph().OutDegree(octopus.NodeID(u)); d > best {
			best, root = d, octopus.NodeID(u)
		}
	}
	pg, err := sys.InfluencePaths(root, octopus.PathOptions{Theta: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Nodes) < 3 {
		t.Fatalf("tree too small: %d", len(pg.Nodes))
	}
	path, err := sys.HighlightPath(pg, pg.Nodes[len(pg.Nodes)-1].ID)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != root {
		t.Fatalf("path = %v", path)
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	_, ds := e2e(t)
	dir := t.TempDir()
	gpath := filepath.Join(dir, "graph.txt")
	if err := octopus.SaveGraph(gpath, ds.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := octopus.LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != ds.Graph.NumNodes() || g.NumEdges() != ds.Graph.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			g.NumNodes(), g.NumEdges(), ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}
	if _, err := octopus.LoadGraph(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	_, ds := e2e(t)
	dir := t.TempDir()
	lpath := filepath.Join(dir, "log.txt")
	if err := octopus.SaveLog(lpath, ds.Log); err != nil {
		t.Fatal(err)
	}
	l, err := octopus.LoadLog(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumActions() != ds.Log.NumActions() {
		t.Fatalf("actions: %d vs %d", l.NumActions(), ds.Log.NumActions())
	}
	// Corrupt file.
	if err := os.WriteFile(lpath, []byte("garbage here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := octopus.LoadLog(lpath); err == nil {
		t.Fatal("corrupt log accepted")
	}
}

// TestSystemSnapshotRoundTrip checks the one persisted form of a built
// system: a snapshot loaded onto the heap, a snapshot mapped in place,
// and a Build that re-indexes over the loaded models (skipping EM) all
// answer a keyword query exactly like the original.
func TestSystemSnapshotRoundTrip(t *testing.T) {
	sys, _ := e2e(t)
	path := filepath.Join(t.TempDir(), "sys.oct")
	if err := octopus.SaveSystem(path, sys); err != nil {
		t.Fatal(err)
	}
	loaded, err := octopus.LoadSystem(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, mapping, err := octopus.MapSystem(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapping.Close()
	cfg := loaded.BuildConfig()
	cfg.GroundTruth, cfg.GroundTruthWords = loaded.Propagation(), loaded.Keywords()
	rebuilt, err := octopus.Build(loaded.Graph(), loaded.ActionLog(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	q := []string{"mining", "clustering"}
	want, err := sys.DiscoverInfluencers(q, octopus.DiscoverOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sys  *octopus.System
	}{{"loaded", loaded}, {"mapped", mapped}, {"rebuilt", rebuilt}} {
		got, err := c.sys.DiscoverInfluencers(q, octopus.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Seeds) != len(want.Seeds) {
			t.Fatalf("%s: %d seeds, want %d", c.name, len(got.Seeds), len(want.Seeds))
		}
		for i, w := range want.Seeds {
			g := got.Seeds[i]
			if g.User != w.User || math.Float64bits(g.Spread) != math.Float64bits(w.Spread) {
				t.Fatalf("%s: seed %d = (%d, %v), want (%d, %v)", c.name, i, g.User, g.Spread, w.User, w.Spread)
			}
		}
	}

	if _, err := octopus.LoadSystem(filepath.Join(t.TempDir(), "absent.oct")); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestManualGraphConstruction(t *testing.T) {
	b := octopus.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetName(0, "alice")
	g := b.Build()
	log := octopus.BuildActionLog(3,
		[]octopus.Item{{ID: 0, Keywords: []string{"hello", "world"}}},
		[]octopus.Action{{User: 0, Item: 0, Time: 0}, {User: 1, Item: 0, Time: 1}})
	sys, err := octopus.Build(g, log, octopus.Config{Topics: 2, EMIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Nodes != 3 {
		t.Fatalf("stats = %+v", sys.Stats())
	}
}
