package tags

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/tic"
)

// Binary payload format: the stored reverse trees with their
// materialized coins (each tree's slot 0 is its poll root), plus the
// per-poll flipped-coin counts (pollCoins), which only feed the
// CoinsFlipped total. Loading re-binds the trees to a TIC model instead
// of re-sampling, so query results over the loaded index are identical
// to the saved one's (the coins ARE the index).
//
// Version 3 stores each tree as the in-memory revTree holds it: node
// list, per-slot offset array, and one 8-aligned pool of fixed 16-byte
// coin records (From, To, Lambda, Edge). WriteBinary writes the arrays
// as they are and a zero-copy reader aliases them out of a mapped
// snapshot; nothing is re-sliced per slot. Any other version is
// rejected: snapshots are regenerated, not migrated.
const tagsBinaryVersion = 3

// WriteBinary serializes the influencer index in the current (aligned,
// version 3) format. The model is serialized separately; ReadView
// re-binds to it.
func WriteBinary(w io.Writer, ix *Index) error {
	bw := binio.NewWriter(w)
	bw.U8(tagsBinaryVersion)
	bw.U64(uint64(len(ix.trees)))
	for p := range ix.trees {
		t := &ix.trees[p]
		bw.I32(t.nodes[0])
		bw.I32(ix.pollCoins[p])
		bw.Align8()
		bw.I32s(t.nodes)
		bw.Align8()
		bw.I32s(t.off)
		bw.Align8()
		bw.U64(uint64(len(t.coins)))
		for _, e := range t.coins {
			bw.I32(e.From)
			bw.I32(e.To)
			bw.F32(e.Lambda)
			bw.I32(e.Edge)
		}
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader, rebuilding
// the derived lookup structure (the per-user poll table) on the heap.
// Zero-copy mode aliases each tree's arrays into the reader's backing
// bytes and skips per-edge content checks (offset-array shape checks
// still run — they guard the pool slicing).
func ReadView(br *arena.Reader, m *tic.Model) (*Index, error) {
	version := br.U8()
	if br.Err() == nil && version != tagsBinaryVersion {
		return nil, fmt.Errorf("tags: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	g := m.Graph()
	n := g.NumNodes()
	numTrees := int(br.U64())
	// An encoded tree takes at least 48 bytes (a one-node list, a
	// two-entry offset array and their counts), so a count its bytes
	// cannot hold is rejected before it sizes anything.
	if br.Err() == nil && (numTrees <= 0 || numTrees > br.Remaining()/48) {
		return nil, fmt.Errorf("tags: binary payload poll count %d out of range", numTrees)
	}
	ix := &Index{m: m, trees: make([]revTree, numTrees), pollCoins: make([]int32, numTrees)}
	seen := make([]int32, n) // seen[v] == p+1: tree p already holds v
	for p := range ix.trees {
		root := br.I32()
		ix.pollCoins[p] = br.I32()
		t, err := readTree(br, root, p, n, g.NumEdges(), seen)
		if err != nil {
			return nil, err
		}
		if br.Err() != nil {
			break
		}
		if ix.pollCoins[p] < 0 {
			return nil, fmt.Errorf("tags: binary payload poll %d coin count negative", p)
		}
		ix.trees[p] = t
		ix.edges += len(t.coins)
		ix.coins += int(ix.pollCoins[p])
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("tags: read binary: %w", err)
	}
	ix.indexContains(n)
	return ix, nil
}

// readTree decodes and validates one aligned tree: node list, per-slot
// offset array, then the flat coin pool (aliased when the reader
// allows). seen is a stamp array over the graph's nodes shared by every
// tree of the payload: tree p stamps p+1, so no tree clears it.
func readTree(br *arena.Reader, root int32, p, n, numEdges int, seen []int32) (revTree, error) {
	var t revTree
	br.Align8()
	t.nodes = br.I32s()
	if br.Err() != nil {
		return t, nil
	}
	if len(t.nodes) == 0 || t.nodes[0] != root {
		return t, fmt.Errorf("tags: binary payload tree %d does not start at its root", p)
	}
	for _, v := range t.nodes {
		if v < 0 || int(v) >= n {
			return t, fmt.Errorf("tags: binary payload tree %d node %d out of range", p, v)
		}
		if seen[v] == int32(p+1) {
			return t, fmt.Errorf("tags: binary payload tree %d repeats node %d", p, v)
		}
		seen[v] = int32(p + 1)
	}
	br.Align8()
	t.off = br.I32s()
	br.Align8()
	cnt := int(br.U64())
	if br.Err() != nil {
		return t, nil
	}
	if cnt < 0 || cnt > arena.MaxLen {
		return t, fmt.Errorf("tags: binary payload tree %d edge count out of range", p)
	}
	// The offset array guards the pool slicing, so its shape is
	// validated even on the trusted zero-copy path.
	k := len(t.nodes)
	if len(t.off) != k+1 || t.off[0] != 0 || t.off[k] != int32(cnt) {
		return t, fmt.Errorf("tags: binary payload tree %d edge offsets malformed", p)
	}
	for i := 0; i < k; i++ {
		if t.off[i] > t.off[i+1] {
			return t, fmt.Errorf("tags: binary payload tree %d edge offsets not monotone at slot %d", p, i)
		}
	}
	var ok bool
	if t.coins, ok = arena.Structs[revEdge](br, cnt); !ok {
		// Big-endian host: field-decode the records.
		t.coins = make([]revEdge, cnt)
		for j := range t.coins {
			t.coins[j] = revEdge{From: br.I32(), To: br.I32(), Lambda: br.F32(), Edge: br.I32()}
		}
	}
	if br.Err() != nil || br.ZeroCopy() {
		return t, nil
	}
	for i := 0; i < k; i++ {
		for _, e := range t.coins[t.off[i]:t.off[i+1]] {
			if e.From < 0 || int(e.From) >= k {
				return t, fmt.Errorf("tags: binary payload tree %d edge source out of range", p)
			}
			if e.To != int32(i) {
				return t, fmt.Errorf("tags: binary payload tree %d edge target %d in slot %d", p, e.To, i)
			}
			if e.Edge < 0 || int(e.Edge) >= numEdges {
				return t, fmt.Errorf("tags: binary payload tree %d graph edge out of range", p)
			}
		}
	}
	return t, nil
}
