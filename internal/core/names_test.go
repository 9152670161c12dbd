package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/tic"
)

// degreeGraph names node i names[i] and gives it out-degree degrees[i]
// into a tail of unnamed sink nodes.
func degreeGraph(names []string, degrees []int) *graph.Graph {
	b := graph.NewBuilder(len(names) + slices.Max(append(degrees, 0)))
	for u, nm := range names {
		b.SetName(graph.NodeID(u), nm)
		for j := 0; j < degrees[u]; j++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(len(names)+j))
		}
	}
	return b.Build()
}

func fourAuthors() *graph.Graph {
	return degreeGraph([]string{"michael jordan", "michael stonebraker", "jiawei han", "jure leskovec"},
		[]int{50, 40, 60, 55})
}

func TestCompleteOrdering(t *testing.T) {
	got := complete(fourAuthors(), "mi", 10)
	if len(got) != 2 || got[0].Key != "michael jordan" || got[1].Key != "michael stonebraker" {
		t.Fatalf("weight ordering wrong: %+v", got)
	}
	if got[0].Value != 0 || got[0].Weight != 50 {
		t.Fatalf("completion carries node %d weight %v, want node 0 weight 50", got[0].Value, got[0].Weight)
	}
}

func TestCompleteLimit(t *testing.T) {
	g := fourAuthors()
	if got := complete(g, "", 2); len(got) != 2 || got[0].Key != "jiawei han" {
		t.Fatalf("top-2 = %+v", got)
	}
	if got := complete(g, "x", 5); got != nil {
		t.Fatalf("no-match = %+v", got)
	}
	if got := complete(g, "j", 0); got != nil {
		t.Fatalf("k=0 = %+v", got)
	}
}

func TestExactKeyIsCompletion(t *testing.T) {
	got := complete(fourAuthors(), "jure leskovec", 5)
	if len(got) != 1 || got[0].Value != 3 {
		t.Fatalf("exact completion = %+v", got)
	}
}

// names is the brute-force name resolution: every non-empty name maps
// to the highest node carrying it.
func names(g *graph.Graph) map[string]graph.NodeID {
	last := map[string]graph.NodeID{}
	for u, nm := range g.Names() {
		if nm != "" {
			last[nm] = graph.NodeID(u)
		}
	}
	return last
}

// oracleComplete is the brute-force Complete: filter the resolvable
// names by prefix, sort by out-degree then name, truncate.
func oracleComplete(g *graph.Graph, p string, k int) []Completion {
	var out []Completion
	for nm, u := range names(g) {
		if strings.HasPrefix(nm, p) {
			out = append(out, Completion{Key: nm, Value: u, Weight: float64(g.OutDegree(u))})
		}
	}
	if k <= 0 || len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Key < out[j].Key
	})
	return out[:min(k, len(out))]
}

// FuzzComplete checks complete against the oracle. keys is a
// newline-separated name list; node i gets out-degree i%4, so duplicate
// names and weight ties are common. The checked-in corpus covers no
// match, k <= 0, a prefix equal to a whole name, empty names and
// non-ASCII bytes.
func FuzzComplete(f *testing.F) {
	f.Add("michael jordan\nmichael stonebraker\njiawei han", "mi", 5)
	f.Fuzz(func(t *testing.T, keys, prefix string, k int) {
		ks := strings.Split(keys, "\n")
		degrees := make([]int, len(ks))
		for i := range degrees {
			degrees[i] = i % 4
		}
		g := degreeGraph(ks, degrees)
		if got, want := complete(g, prefix, k), oracleComplete(g, prefix, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("complete(%q, %d) = %+v, want %+v", prefix, k, got, want)
		}
	})
}

// handNamed is the test corpus with hand-made names on top: two
// duplicated names, an unnamed node and nodes named like decimal ids,
// one of them shadowing another held node's id. It returns the system
// and the node whose id is shadowed and the node that shadows it.
func handNamed(t *testing.T) (sys *System, shadowed, shadow graph.NodeID) {
	base, ds := testSystem(t)
	g0 := ds.Graph
	var held []graph.NodeID
	for u := graph.NodeID(0); int(u) < g0.NumNodes(); u++ {
		if base.HoldsUser(u) {
			held = append(held, u)
		}
	}
	if len(held) < 10 {
		t.Fatalf("corpus holds %d users", len(held))
	}
	shadowed, shadow = held[1], held[len(held)-1]
	b := graph.NewBuilder(g0.NumNodes())
	b.AddGraph(g0)
	b.SetName(3, g0.Name(7))   // duplicate: 7 keeps the name
	b.SetName(20, g0.Name(10)) // duplicate: 20 takes it from 10
	b.SetName(30, "")
	b.SetName(shadow, strconv.Itoa(int(shadowed)))
	b.SetName(held[2], strconv.Itoa(int(held[2]))) // named like its own id
	b.SetName(held[3], "00"+strconv.Itoa(int(held[3])))
	g := b.Build()
	prop, err := tic.Remap(ds.Truth, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err = Build(g, ds.Log, Config{GroundTruth: prop, GroundTruthWords: ds.TruthWords, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return sys, shadowed, shadow
}

// TestNamesMatchOracle checks Lookup, WithPrefix, Complete, ResolveUser
// and HeldUserKeys against brute-force scans over the corpus names.
func TestNamesMatchOracle(t *testing.T) {
	sys, shadowed, shadow := handNamed(t)
	g := sys.Graph()
	last := names(g)
	n := g.NumNodes()

	if u, _ := g.Lookup(g.Name(7)); u != 7 {
		t.Fatalf("duplicate name %q resolved to %d, want 7", g.Name(7), u)
	}
	if u, _ := g.Lookup(g.Name(20)); u != 20 {
		t.Fatalf("duplicate name %q resolved to %d, want 20", g.Name(20), u)
	}
	if u, err := sys.ResolveUser(strconv.Itoa(int(shadowed))); err != nil || u != shadow {
		t.Fatalf("ResolveUser(%d) = %d, %v; the name of node %d shadows the id", shadowed, u, err, shadow)
	}

	queries := []string{"", "zzz", "0", "00", "no such person", strconv.Itoa(n), "-1"}
	for nm := range last {
		queries = append(queries, nm, nm[:1], nm[:min(2, len(nm))], nm[:min(5, len(nm))])
	}
	for u := 0; u <= n; u += 7 {
		queries = append(queries, strconv.Itoa(u))
	}
	slices.Sort(queries)
	queries = slices.Compact(queries)
	for _, q := range queries {
		u, ok := g.Lookup(q)
		if want, wantOK := last[q]; u != want || ok != wantOK {
			t.Fatalf("Lookup(%q) = %d, %v; want %d, %v", q, u, ok, want, wantOK)
		}
		var scan []string
		for nm := range last {
			if strings.HasPrefix(nm, q) {
				scan = append(scan, nm)
			}
		}
		slices.Sort(scan)
		var got []string
		for _, u := range g.WithPrefix(q) {
			got = append(got, g.Name(u))
			if last[g.Name(u)] != u {
				t.Fatalf("WithPrefix(%q) holds node %d, which does not own %q", q, u, g.Name(u))
			}
		}
		if !slices.Equal(got, scan) {
			t.Fatalf("WithPrefix(%q) = %q, want %q", q, got, scan)
		}
		for _, k := range []int{-1, 0, 1, 3, n + 1} {
			if got, want := sys.Complete(q, k), oracleComplete(g, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("Complete(%q, %d) = %+v, want %+v", q, k, got, want)
			}
		}

		gotU, err := sys.ResolveUser(q)
		wantU, wantOK := last[q]
		if id, aerr := strconv.Atoi(q); !wantOK && aerr == nil && id >= 0 && id < n {
			wantU, wantOK = graph.NodeID(id), true
		}
		if (err == nil) != wantOK || gotU != wantU {
			t.Fatalf("ResolveUser(%q) = %d, %v; want %d, ok %v", q, gotU, err, wantU, wantOK)
		}
	}

	want := oracleHeldUserKeys(sys, last)
	if got := sys.HeldUserKeys(); !slices.Equal(got, want) {
		t.Fatalf("HeldUserKeys differs from the map-based listing:\n got %q\nwant %q", got, want)
	}
	if slices.Contains(want, strconv.Itoa(int(shadowed))) != sys.HoldsUser(shadow) {
		t.Fatalf("the shadowing name %d is listed iff its node is held", shadowed)
	}
}

// oracleHeldUserKeys is HeldUserKeys as it was written over a
// name→id map.
func oracleHeldUserKeys(s *System, last map[string]graph.NodeID) []string {
	var keys []string
	for u := graph.NodeID(0); int(u) < s.g.NumNodes(); u++ {
		if !s.HoldsUser(u) {
			continue
		}
		if nm := s.g.Name(u); nm != "" {
			if v := last[nm]; v == u {
				keys = append(keys, nm)
			}
		}
		id := strconv.Itoa(int(u))
		if _, named := last[id]; !named {
			keys = append(keys, id)
		}
	}
	return keys
}

// TestNamesConcurrentFirstUse: 16 goroutines resolve and complete names
// on a graph whose name table nobody has built yet; under -race this
// checks the table's one-time build.
func TestNamesConcurrentFirstUse(t *testing.T) {
	_, ds := testSystem(t)
	b := graph.NewBuilder(ds.Graph.NumNodes())
	b.AddGraph(ds.Graph)
	g := b.Build()
	last := names(g)
	nms := g.Names()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				nm := nms[(i*31+j*7)%len(nms)]
				if u, ok := g.Lookup(nm); !ok || u != last[nm] {
					t.Errorf("Lookup(%q) = %d, %v; want %d", nm, u, ok, last[nm])
				}
				p := nm[:min(2, len(nm))]
				if got, want := complete(g, p, 5), oracleComplete(g, p, 5); !reflect.DeepEqual(got, want) {
					t.Errorf("complete(%q, 5) = %+v, want %+v", p, got, want)
				}
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkComplete(b *testing.B) {
	ns := make([]string, 10000)
	degrees := make([]int, len(ns))
	for i := range ns {
		ns[i] = fmt.Sprintf("user%05d", i)
		degrees[i] = i % 100
	}
	g := degreeGraph(ns, degrees)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		complete(g, "user0", 10)
	}
}
