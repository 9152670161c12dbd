package graph

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
)

// Binary payload format. Version 2 lays every CSR array on an 8-byte
// boundary (relative to the payload start) and serializes the reverse
// adjacency explicitly, so a zero-copy reader can alias all five
// arrays straight out of a mapped snapshot section without the O(m)
// counting rebuild. Any other version is rejected: snapshots are
// regenerated, not migrated.
const graphBinaryVersion = 2

// WriteBinary serializes g's CSR representation in the current
// (aligned, version 2) format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := binio.NewWriter(w)
	bw.U8(graphBinaryVersion)
	bw.I32(g.n)
	bw.Align8()
	bw.I32s(g.outOff)
	bw.Align8()
	bw.I32s(g.outDst)
	bw.Align8()
	bw.I32s(g.inOff)
	bw.Align8()
	bw.I32s(g.inSrc)
	bw.Align8()
	bw.I32s(g.inEdge)
	if g.names != nil {
		bw.U8(1)
		bw.Strs(g.names)
	} else {
		bw.U8(0)
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. In
// zero-copy mode the five CSR arrays alias the reader's backing bytes
// (the caller keeps them alive) and the O(m) content revalidation is
// skipped in favor of shape checks — mapped snapshots were CRC-framed
// when written. The name table is not built here: it builds on the
// first Lookup or WithPrefix.
func ReadView(br *arena.Reader) (*Graph, error) {
	version := br.U8()
	if br.Err() == nil && version != graphBinaryVersion {
		return nil, fmt.Errorf("graph: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	g := &Graph{}
	g.n = br.I32()
	br.Align8()
	g.outOff = br.I32s()
	br.Align8()
	g.outDst = br.I32s()
	br.Align8()
	g.inOff = br.I32s()
	br.Align8()
	g.inSrc = br.I32s()
	br.Align8()
	g.inEdge = br.I32s()
	if hasNames := br.U8(); br.Err() == nil && hasNames == 1 {
		g.names = br.Strs()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("graph: read binary: %w", err)
	}
	if g.n < 0 || len(g.outOff) != int(g.n)+1 {
		return nil, fmt.Errorf("graph: binary payload has %d offsets for %d nodes", len(g.outOff), g.n)
	}
	if g.names != nil && len(g.names) != int(g.n) {
		return nil, fmt.Errorf("graph: binary payload has %d names for %d nodes", len(g.names), g.n)
	}
	m := len(g.outDst)
	if err := checkOffsets("out", g.outOff, g.n, m); err != nil {
		return nil, err
	}
	if len(g.inOff) != int(g.n)+1 || len(g.inSrc) != m || len(g.inEdge) != m {
		return nil, fmt.Errorf("graph: binary payload reverse arrays sized %d/%d/%d for %d nodes, %d edges",
			len(g.inOff), len(g.inSrc), len(g.inEdge), g.n, m)
	}
	if err := checkOffsets("in", g.inOff, g.n, m); err != nil {
		return nil, err
	}
	// Zero-copy input is a snapshot we (or a peer replica) wrote and
	// framed with CRCs: the per-edge content validation would fault in
	// every page of a mapped file, defeating the lazy cold start, so it
	// only runs on the copying path.
	if !br.ZeroCopy() {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
		}
	}
	return g, nil
}

// checkOffsets validates a CSR offset array's shape: [0,m] span and
// monotone throughout. O(n) over the offsets only, never the edges.
func checkOffsets(kind string, off []int32, n int32, m int) error {
	if off[0] != 0 || off[n] != int32(m) {
		return fmt.Errorf("graph: binary payload %s-offsets span [%d,%d] for %d edges", kind, off[0], off[n], m)
	}
	for u := int32(0); u < n; u++ {
		if off[u] > off[u+1] {
			return fmt.Errorf("graph: binary payload %s-offsets not monotone at node %d", kind, u)
		}
	}
	return nil
}
