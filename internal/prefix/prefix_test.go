package prefix

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"octopus/internal/datagen"
	"octopus/internal/graph"
)

func build() *Index {
	return New([]Completion{
		{"michael jordan", 1, 50},
		{"michael stonebraker", 2, 40},
		{"jiawei han", 3, 60},
		{"jure leskovec", 4, 55},
	})
}

func TestInsertOverwrite(t *testing.T) {
	ix := New([]Completion{
		{"michael jordan", 1, 50},
		{"jiawei han", 3, 60},
		{"jure leskovec", 4, 55},
		{"jiawei han", 9, 1},
	})
	got := ix.Complete("", 10)
	if len(got) != 3 {
		t.Fatalf("duplicate key kept twice: %+v", got)
	}
	if got := ix.Complete("jiawei han", 10); len(got) != 1 || got[0].Value != 9 || got[0].Weight != 1 {
		t.Fatalf("last entry lost: %+v", got)
	}
}

func TestCompleteOrdering(t *testing.T) {
	ix := build()
	got := ix.Complete("mi", 10)
	if len(got) != 2 {
		t.Fatalf("completions = %+v", got)
	}
	if got[0].Key != "michael jordan" || got[1].Key != "michael stonebraker" {
		t.Fatalf("weight ordering wrong: %+v", got)
	}
}

func TestCompleteLimit(t *testing.T) {
	ix := build()
	if got := ix.Complete("", 2); len(got) != 2 || got[0].Key != "jiawei han" {
		t.Fatalf("top-2 = %+v", got)
	}
	if got := ix.Complete("x", 5); got != nil {
		t.Fatalf("no-match = %+v", got)
	}
	if got := ix.Complete("j", 0); got != nil {
		t.Fatalf("k=0 = %+v", got)
	}
}

func TestExactKeyIsCompletion(t *testing.T) {
	ix := build()
	got := ix.Complete("jure leskovec", 5)
	if len(got) != 1 || got[0].Value != 4 {
		t.Fatalf("exact completion = %+v", got)
	}
}

func TestQuickCompleteContainsAllMatches(t *testing.T) {
	var es []Completion
	for i := 0; i < 100; i++ {
		es = append(es, Completion{fmt.Sprintf("user%03d", i), int32(i), float64(i % 10)})
	}
	ix := New(es)
	got := ix.Complete("user0", 1000)
	if len(got) != 100 {
		t.Fatalf("Complete(user0) = %d entries, want 100", len(got))
	}
	got2 := ix.Complete("user09", 1000)
	if len(got2) != 10 {
		t.Fatalf("Complete(user09) = %d entries, want 10", len(got2))
	}
}

// TestBuildAllocs gates the index's build cost over the names of a
// 2 000-author citation corpus: one entry slice and nothing per name
// beyond it.
func TestBuildAllocs(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 2000, Topics: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	es := make([]Completion, 0, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if nm := g.Name(graph.NodeID(u)); nm != "" {
			es = append(es, Completion{Key: nm, Value: int32(u), Weight: float64(g.OutDegree(graph.NodeID(u)))})
		}
	}
	ix := New(es)
	runtime.ReadMemStats(&after)
	if len(es) == 0 || ix.Complete("", 1) == nil {
		t.Fatal("fixture has no names")
	}
	perName := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(es))
	t.Logf("%d names, %.1f B allocated per name", len(es), perName)
	if perName > 160 {
		t.Fatalf("building the index allocated %.1f B per name, want <= 160", perName)
	}
}

// oracle is the brute-force Complete: filter by prefix, keep the last
// entry of each duplicate key, sort by weight then key, truncate.
func oracle(es []Completion, prefix string, k int) []Completion {
	last := map[string]Completion{}
	for _, e := range es {
		last[e.Key] = e
	}
	var out []Completion
	for key, e := range last {
		if strings.HasPrefix(key, prefix) {
			out = append(out, e)
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
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// FuzzComplete checks New+Complete against the oracle. keys is a
// newline-separated key list; entry i gets value i and weight i%4, so
// duplicates and weight ties are common. The checked-in corpus covers
// no match, k <= 0, a prefix equal to a whole key and non-ASCII bytes.
func FuzzComplete(f *testing.F) {
	f.Add("michael jordan\nmichael stonebraker\njiawei han", "mi", 5)
	f.Fuzz(func(t *testing.T, keys, prefix string, k int) {
		var es []Completion
		for i, key := range strings.Split(keys, "\n") {
			es = append(es, Completion{Key: key, Value: int32(i), Weight: float64(i % 4)})
		}
		want := oracle(es, prefix, k)
		got := New(es).Complete(prefix, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Complete(%q, %d) = %+v, want %+v", prefix, k, got, want)
		}
	})
}

func BenchmarkComplete(b *testing.B) {
	var es []Completion
	for i := 0; i < 10000; i++ {
		es = append(es, Completion{fmt.Sprintf("user%05d", i), int32(i), float64(i % 100)})
	}
	ix := New(es)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Complete("user0", 10)
	}
}
