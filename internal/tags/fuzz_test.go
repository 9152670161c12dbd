package tags

import (
	"bytes"
	"slices"
	"testing"

	"octopus/internal/arena"
	"octopus/internal/graph"
	"octopus/internal/topic"
)

// encodeIndex is WriteBinary into a fresh byte slice.
func encodeIndex(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ix); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withTree encodes ix with one edited copy of the first tree that has
// at least two nodes and a coin; ix itself is left as it was.
func withTree(tb testing.TB, ix *Index, edit func(t *revTree)) []byte {
	tb.Helper()
	p := slices.IndexFunc(ix.trees, func(t revTree) bool { return len(t.nodes) >= 2 && len(t.coins) > 0 })
	if p < 0 {
		tb.Fatal("no tree with a stored coin")
	}
	c := *ix
	c.trees = slices.Clone(ix.trees)
	t := c.trees[p]
	t.off, t.coins = slices.Clone(t.off), slices.Clone(t.coins)
	edit(&t)
	c.trees[p] = t
	return encodeIndex(tb, &c)
}

// FuzzTagsReadView feeds raw tags payloads to the copying reader. A
// payload it accepts must be safe to query — a spread estimate for
// every user — and must be canonical: WriteBinary gives back the bytes
// it consumed.
func FuzzTagsReadView(f *testing.F) {
	m, _ := world(f)
	ix := buildIx(f, m, 6, 2)
	valid := encodeIndex(f, ix)
	f.Add(valid)
	for _, cut := range []int{1, 9, 24, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(withTree(f, ix, func(t *revTree) { t.off[1] = t.off[len(t.nodes)] + 1 }))    // non-monotone offsets
	f.Add(withTree(f, ix, func(t *revTree) { t.coins[0].To++ }))                       // coin in the wrong slot
	f.Add(withTree(f, ix, func(t *revTree) { t.coins[0].From = int32(len(t.nodes)) })) // source out of range

	n := m.Graph().NumNodes()
	gamma := topic.Dist{0.5, 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := arena.NewReader(data)
		got, err := ReadView(br, m)
		if err != nil {
			return
		}
		for u := graph.NodeID(-1); int(u) <= n; u++ {
			got.SpreadEstimate(u, gamma, nil)
			got.MaxSpreadEstimate(u)
		}
		if out, in := encodeIndex(t, got), data[:len(data)-br.Remaining()]; !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %d bytes differ from the %d decoded", len(out), len(in))
		}
	})
}

// The copying reader rejects each malformed tree FuzzTagsReadView is
// seeded with, and accepts the intact payload.
func TestReadViewRejectsMalformedTrees(t *testing.T) {
	m, _ := world(t)
	ix := buildIx(t, m, 6, 2)
	if _, err := ReadView(arena.NewReader(encodeIndex(t, ix)), m); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(t *revTree){
		"non-monotone offsets": func(t *revTree) { t.off[1] = t.off[len(t.nodes)] + 1 },
		"coin in wrong slot":   func(t *revTree) { t.coins[0].To++ },
		"source out of range":  func(t *revTree) { t.coins[0].From = int32(len(t.nodes)) },
	} {
		if _, err := ReadView(arena.NewReader(withTree(t, ix, edit)), m); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
