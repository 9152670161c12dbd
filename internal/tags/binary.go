package tags

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/tic"
)

// Binary payload format: the poll roots and stored reverse trees with
// their materialized coins, plus the per-poll flipped-coin counts
// (pollCoins), which only feed the CoinsFlipped total. Loading re-binds
// the trees to a TIC model instead of
// re-sampling, so query results over the loaded index are identical to
// the saved one's (the coins ARE the index).
//
// Version 3 flattens each tree's jagged per-slot edge lists into one
// 8-aligned pool of fixed 16-byte coin records (From, To, Lambda,
// Edge — To explicit now) indexed by a per-slot offset array, so a
// zero-copy reader aliases a whole tree's coins out of a mapped
// snapshot in one step and the in-memory lists become subslices of the
// pool. Any other version is rejected: snapshots are regenerated, not
// migrated.
const tagsBinaryVersion = 3

// WriteBinary serializes the influencer index in the current (aligned,
// version 3) format. The model is serialized separately; ReadView
// re-binds to it.
func WriteBinary(w io.Writer, ix *Index) error {
	bw := binio.NewWriter(w)
	bw.U8(tagsBinaryVersion)
	bw.U64(uint64(len(ix.trees)))
	for ti := range ix.trees {
		t := &ix.trees[ti]
		bw.I32(ix.polls[ti])
		bw.I32(ix.pollCoins[ti])
		bw.Align8()
		bw.I32s(t.nodes)
		var total int32
		edgeOff := make([]int32, len(t.nodes)+1)
		for i, edges := range t.inEdges {
			total += int32(len(edges))
			edgeOff[i+1] = total
		}
		bw.Align8()
		bw.I32s(edgeOff)
		bw.Align8()
		bw.U64(uint64(total))
		for i, edges := range t.inEdges {
			for _, e := range edges {
				bw.I32(e.From)
				bw.I32(int32(i)) // To
				bw.F32(e.Lambda)
				bw.I32(e.Edge)
			}
		}
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader, rebuilding
// the derived lookup structure (the per-user poll table) on the heap.
// Zero-copy mode aliases each tree's coin pool into the reader's
// backing bytes and skips per-edge content checks (offset-array shape
// checks still run — they guard the subslicing).
func ReadView(br *arena.Reader, m *tic.Model) (*Index, error) {
	version := br.U8()
	if br.Err() == nil && version != tagsBinaryVersion {
		return nil, fmt.Errorf("tags: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	g := m.Graph()
	n := g.NumNodes()
	ix := &Index{m: m}
	numTrees := int(br.U64())
	if br.Err() == nil && (numTrees <= 0 || numTrees > arena.MaxLen) {
		return nil, fmt.Errorf("tags: binary payload poll count %d out of range", numTrees)
	}
	seen := make([]int32, n) // seen[v] == p+1: tree p already holds v
	for p := 0; p < numTrees && br.Err() == nil; p++ {
		root := br.I32()
		pollCoins := br.I32()
		t, edges, err := readTree(br, root, p, n, g.NumEdges(), seen)
		if err != nil {
			return nil, err
		}
		if br.Err() != nil {
			break
		}
		if pollCoins < 0 {
			return nil, fmt.Errorf("tags: binary payload poll %d coin count negative", p)
		}
		ix.edges += edges
		ix.polls = append(ix.polls, root)
		ix.trees = append(ix.trees, t)
		ix.pollCoins = append(ix.pollCoins, pollCoins)
		ix.coins += int(pollCoins)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("tags: read binary: %w", err)
	}
	ix.indexContains(n)
	return ix, nil
}

// readNodes decodes and validates one tree's node list. seen is a
// stamp array over the graph's nodes shared by every tree of the
// payload: tree p stamps p+1, so no tree clears it.
func readNodes(br *arena.Reader, root int32, p, n int, seen []int32) (revTree, error) {
	t := revTree{nodes: br.I32s()}
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
	return t, nil
}

// readTree decodes one aligned tree: node list, per-slot offset
// array, then the flat coin pool (aliased when the reader allows).
func readTree(br *arena.Reader, root int32, p, n, numEdges int, seen []int32) (revTree, int, error) {
	br.Align8()
	t, err := readNodes(br, root, p, n, seen)
	if err != nil || br.Err() != nil {
		return t, 0, err
	}
	br.Align8()
	edgeOff := br.I32s()
	br.Align8()
	cnt := int(br.U64())
	if br.Err() != nil {
		return t, 0, nil
	}
	if cnt < 0 || cnt > arena.MaxLen {
		return t, 0, fmt.Errorf("tags: binary payload tree %d edge count out of range", p)
	}
	// The offset array guards the pool subslicing below, so its shape is
	// validated even on the trusted zero-copy path.
	if len(edgeOff) != len(t.nodes)+1 || edgeOff[0] != 0 || edgeOff[len(t.nodes)] != int32(cnt) {
		return t, 0, fmt.Errorf("tags: binary payload tree %d edge offsets malformed", p)
	}
	for i := 0; i < len(t.nodes); i++ {
		if edgeOff[i] > edgeOff[i+1] {
			return t, 0, fmt.Errorf("tags: binary payload tree %d edge offsets not monotone at slot %d", p, i)
		}
	}
	pool, ok := arena.Structs[revEdge](br, cnt)
	if !ok {
		// Big-endian host: field-decode the records.
		pool = make([]revEdge, cnt)
		for k := range pool {
			pool[k] = revEdge{From: br.I32(), To: br.I32(), Lambda: br.F32(), Edge: br.I32()}
		}
	}
	if br.Err() != nil {
		return t, 0, nil
	}
	if !br.ZeroCopy() {
		for i := 0; i < len(t.nodes); i++ {
			for _, e := range pool[edgeOff[i]:edgeOff[i+1]] {
				if e.From < 0 || int(e.From) >= len(t.nodes) {
					return t, 0, fmt.Errorf("tags: binary payload tree %d edge source out of range", p)
				}
				if e.To != int32(i) {
					return t, 0, fmt.Errorf("tags: binary payload tree %d edge target %d in slot %d", p, e.To, i)
				}
				if e.Edge < 0 || int(e.Edge) >= numEdges {
					return t, 0, fmt.Errorf("tags: binary payload tree %d graph edge out of range", p)
				}
			}
		}
	}
	t.inEdges = make([][]revEdge, len(t.nodes))
	for i := range t.nodes {
		t.inEdges[i] = pool[edgeOff[i]:edgeOff[i+1]:edgeOff[i+1]]
	}
	return t, cnt, nil
}
