// Package prefix provides a sorted name index with weighted top-k
// prefix completion, backing the auto-completion box of the OCTOPUS
// interface ("she can simply type in the name … assisted by an
// auto-completion tool", Scenario 2).
package prefix

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Completion is one indexed entry and one auto-completion result.
type Completion struct {
	Key    string
	Value  int32
	Weight float64
}

// Index is an immutable key-sorted set of completions. Concurrent
// reads are safe.
type Index struct {
	entries []Completion // sorted by Key, keys unique
}

// New builds an index over entries, taking ownership of the slice (it
// is sorted and compacted in place). For a duplicate key the last
// entry wins.
func New(entries []Completion) *Index {
	slices.SortStableFunc(entries, func(a, b Completion) int { return strings.Compare(a.Key, b.Key) })
	out := entries[:0]
	for i, e := range entries {
		if i+1 < len(entries) && entries[i+1].Key == e.Key {
			continue
		}
		out = append(out, e)
	}
	clear(entries[len(out):])
	return &Index{entries: out}
}

// Complete returns up to k completions of prefix ordered by decreasing
// weight (ties broken lexicographically), or nil when none match.
func (ix *Index) Complete(prefix string, k int) []Completion {
	if k <= 0 {
		return nil
	}
	es := ix.entries
	lo, _ := slices.BinarySearchFunc(es, prefix, func(e Completion, p string) int { return strings.Compare(e.Key, p) })
	hi := lo + sort.Search(len(es)-lo, func(i int) bool { return !strings.HasPrefix(es[lo+i].Key, prefix) })
	if lo == hi {
		return nil
	}
	out := slices.Clone(es[lo:hi])
	slices.SortFunc(out, func(a, b Completion) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
