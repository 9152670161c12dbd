package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/store"
)

func buildFull(t *testing.T, authors int, seed uint64) *core.System {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: authors, Topics: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             seed ^ 0x5a5a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPartitionDeterministicAndTotal(t *testing.T) {
	full := buildFull(t, 300, 7)
	g := full.Graph()
	for _, strat := range []Strategy{Hash{Seed: 42}, Community{Seed: 42}} {
		t.Run(strat.Name(), func(t *testing.T) {
			a, err := strat.Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			b, err := strat.Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != g.NumNodes() {
				t.Fatalf("assignment covers %d of %d nodes", len(a), g.NumNodes())
			}
			counts := make([]int, 4)
			for u, k := range a {
				if k != b[u] {
					t.Fatalf("node %d: assignment not deterministic (%d vs %d)", u, k, b[u])
				}
				if k < 0 || k >= 4 {
					t.Fatalf("node %d: owner %d out of range", u, k)
				}
				counts[k]++
			}
			for k, c := range counts {
				if c == 0 {
					t.Fatalf("shard %d owns no nodes: %v", k, counts)
				}
			}
		})
	}
}

func TestParseStrategy(t *testing.T) {
	for _, name := range Strategies() {
		s, err := ParseStrategy(name, 1)
		if err != nil || s.Name() != name {
			t.Fatalf("ParseStrategy(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ParseStrategy("bogus", 1); err == nil {
		t.Fatal("ParseStrategy accepted unknown strategy")
	}
}

// TestSplitExactlyOnce checks the no-loss/no-duplication contract:
// every edge lands on exactly the shard owning its source, every
// action on exactly the shard owning its user, with totals conserved.
func TestSplitExactlyOnce(t *testing.T) {
	full := buildFull(t, 350, 3)
	g, log := full.Graph(), full.ActionLog()
	const shards = 3
	owner, err := (Hash{Seed: 9}).Partition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := Split(g, log, owner, shards)
	if err != nil {
		t.Fatal(err)
	}

	edgeTotal := 0
	for k, c := range corpora {
		if c.Graph.NumNodes() != g.NumNodes() {
			t.Fatalf("shard %d lost node slots: %d of %d", k, c.Graph.NumNodes(), g.NumNodes())
		}
		edgeTotal += c.Graph.NumEdges()
		c.Graph.EachEdge(func(_ graph.EdgeID, u, v graph.NodeID) {
			if owner[u] != int32(k) {
				t.Fatalf("edge (%d,%d) on shard %d but source owned by %d", u, v, k, owner[u])
			}
			if _, ok := g.FindEdge(u, v); !ok {
				t.Fatalf("edge (%d,%d) on shard %d absent from the full graph", u, v, k)
			}
		})
		// Names replicate everywhere: global name resolution.
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			if c.Graph.Name(u) != g.Name(u) {
				t.Fatalf("shard %d: node %d named %q, full graph %q", k, u, c.Graph.Name(u), g.Name(u))
			}
		}
	}
	if edgeTotal != g.NumEdges() {
		t.Fatalf("edges not conserved: shards hold %d, full graph %d", edgeTotal, g.NumEdges())
	}

	type akey struct {
		user graph.NodeID
		item int32
		time int64
	}
	seen := map[akey]int{}
	for k, c := range corpora {
		for _, a := range c.Log.Actions() {
			if owner[a.User] != int32(k) {
				t.Fatalf("action by user %d on shard %d, owner %d", a.User, k, owner[a.User])
			}
			seen[akey{a.User, a.Item, a.Time}]++
		}
	}
	for _, a := range log.Actions() {
		if seen[akey{a.User, a.Item, a.Time}] != 1 {
			t.Fatalf("action %+v appears %d times across shards", a, seen[akey{a.User, a.Item, a.Time}])
		}
		delete(seen, akey{a.User, a.Item, a.Time})
	}
	if len(seen) != 0 {
		t.Fatalf("%d actions on shards that are not in the full log", len(seen))
	}

	// Every item survives on at least one shard.
	items := map[int32]bool{}
	for _, c := range corpora {
		for _, it := range c.Log.Items() {
			items[it.ID] = true
		}
	}
	for _, it := range log.Items() {
		if !items[it.ID] {
			t.Fatalf("item %d lost in the split", it.ID)
		}
	}
}

func TestSplitOneShardReturnsOriginals(t *testing.T) {
	full := buildFull(t, 200, 5)
	owner, err := (Hash{Seed: 1}).Partition(full.Graph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := Split(full.Graph(), full.ActionLog(), owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpora) != 1 || corpora[0].Graph != full.Graph() || corpora[0].Log != full.ActionLog() {
		t.Fatal("1-shard split must return the original graph and log")
	}
}

func TestSplitRejectsBadAssignment(t *testing.T) {
	full := buildFull(t, 200, 5)
	if _, err := Split(full.Graph(), full.ActionLog(), make([]int32, 3), 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := make([]int32, full.Graph().NumNodes())
	bad[0] = 7
	if _, err := Split(full.Graph(), full.ActionLog(), bad, 2); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
}

// TestFleetSnapshotsBitIdentical is the exchange round-trip guarantee:
// same corpus, seed and N produce byte-identical shard snapshot files.
func TestFleetSnapshotsBitIdentical(t *testing.T) {
	full := buildFull(t, 250, 11)
	dirA, dirB := t.TempDir(), t.TempDir()
	pathsA, err := WriteFleet(dirA, full, Hash{Seed: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pathsB, err := WriteFleet(dirB, full, Hash{Seed: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range pathsA {
		a, err := os.ReadFile(pathsA[k])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[k])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d snapshots differ between identical runs", k)
		}
		if filepath.Base(pathsA[k]) != FileName(k, 2) {
			t.Fatalf("shard %d saved as %q, want %q", k, filepath.Base(pathsA[k]), FileName(k, 2))
		}
	}
}

// TestOneShardSnapshotMatchesFull: splitting into one shard and saving
// reproduces the single-process snapshot bit for bit — the foundation
// of the coordinator's 1-shard byte-identity guarantee.
func TestOneShardSnapshotMatchesFull(t *testing.T) {
	full := buildFull(t, 250, 13)
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.oct")
	if err := store.Save(fullPath, full); err != nil {
		t.Fatal(err)
	}
	paths, err := WriteFleet(dir, full, Hash{Seed: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("1-shard snapshot (%d bytes) differs from the full snapshot (%d bytes)", len(b), len(a))
	}
}

// TestShardSystemsAnswerQueries: shard systems load from their
// exchange snapshots and answer influence queries; fleet-wide γ
// inference matches the full system exactly.
func TestShardSystemsAnswerQueries(t *testing.T) {
	full := buildFull(t, 300, 17)
	dir := t.TempDir()
	paths, err := WriteFleet(dir, full, Hash{Seed: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantGamma, _ := full.InferGamma([]string{"mining", "data"})
	for k, p := range paths {
		sys, err := store.Load(p)
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		gamma, _ := sys.InferGamma([]string{"mining", "data"})
		if len(gamma) != len(wantGamma) {
			t.Fatalf("shard %d: gamma dimension %d, want %d", k, len(gamma), len(wantGamma))
		}
		for z := range gamma {
			if gamma[z] != wantGamma[z] {
				t.Fatalf("shard %d: gamma[%d] = %v, full system %v", k, z, gamma[z], wantGamma[z])
			}
		}
		res, err := sys.DiscoverInfluencers([]string{"mining"}, core.DiscoverOptions{K: 3})
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		if len(res.Seeds) == 0 {
			t.Fatalf("shard %d returned no seeds", k)
		}
	}
}

// TestShardsHoldOnlyOwnedUsers: a shard holds data (an out-edge or an
// action) for exactly the users it owns that hold data in the full
// corpus, so the shards' held user keys partition the full system's —
// the property a coordinator's one-hop user routing rests on.
func TestShardsHoldOnlyOwnedUsers(t *testing.T) {
	full := buildFull(t, 300, 11)
	const shards = 3
	for _, strat := range []Strategy{Hash{Seed: 4}, Community{Seed: 4}} {
		t.Run(strat.Name(), func(t *testing.T) {
			owner, err := strat.Partition(full.Graph(), shards)
			if err != nil {
				t.Fatal(err)
			}
			corpora, err := SplitSystem(full, strat, shards)
			if err != nil {
				t.Fatal(err)
			}
			claims := map[string]int{}
			for k, c := range corpora {
				sys, err := BuildSystem(full, c)
				if err != nil {
					t.Fatal(err)
				}
				for u := graph.NodeID(0); int(u) < full.Graph().NumNodes(); u++ {
					want := owner[u] == int32(k) && full.HoldsUser(u)
					if got := sys.HoldsUser(u); got != want {
						t.Fatalf("shard %d (owner of node %d: %d) holds it = %v, want %v", k, u, owner[u], got, want)
					}
				}
				for _, key := range sys.HeldUserKeys() {
					claims[key]++
				}
			}
			keys := full.HeldUserKeys()
			if len(keys) == 0 || len(claims) != len(keys) {
				t.Fatalf("shards claim %d keys, the full system holds %d", len(claims), len(keys))
			}
			for _, key := range keys {
				if claims[key] != 1 {
					t.Fatalf("key %q claimed by %d shards", key, claims[key])
				}
			}
		})
	}
}
