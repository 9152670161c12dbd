package tic

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/graph"
)

// Binary payload format. Version 2 aligns every bulk array on an
// 8-byte boundary and serializes the derived maxP bound, so a
// zero-copy reader aliases all four arrays out of a mapped snapshot
// with no per-edge derivation pass. Any other version is rejected:
// snapshots are regenerated, not migrated.
const ticBinaryVersion = 2

// WriteBinary serializes the model's sparse probability arrays in the
// current (aligned, version 2) format. The graph is serialized
// separately; ReadView re-binds to it.
func WriteBinary(w io.Writer, m *Model) error {
	bw := binio.NewWriter(w)
	bw.U8(ticBinaryVersion)
	bw.U32(uint32(m.z))
	bw.U64(uint64(m.g.NumEdges()))
	bw.Align8()
	bw.I32s(m.off)
	bw.Align8()
	bw.U16s(m.topicIdx)
	bw.Align8()
	bw.F32s(m.topicP)
	bw.Align8()
	bw.F32s(m.maxP)
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. Zero-copy
// mode aliases the probability arrays into the reader's backing bytes
// and skips the O(entries) content revalidation (shape and offset
// checks still run), since mapped snapshots were CRC-framed when
// written. The model is bound to g, which must have exactly the edge
// count recorded in the payload.
func ReadView(br *arena.Reader, g *graph.Graph) (*Model, error) {
	version := br.U8()
	if br.Err() == nil && version != ticBinaryVersion {
		return nil, fmt.Errorf("tic: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	z := int(br.U32())
	edges := int(br.U64())
	br.Align8()
	off := br.I32s()
	br.Align8()
	topicIdx := br.U16s()
	br.Align8()
	topicP := br.F32s()
	br.Align8()
	maxP := br.F32s()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("tic: read binary: %w", err)
	}
	if z <= 0 || z > 1<<16 {
		return nil, fmt.Errorf("tic: binary payload topic count %d out of range", z)
	}
	if edges != g.NumEdges() {
		return nil, fmt.Errorf("tic: model has %d edges, graph has %d", edges, g.NumEdges())
	}
	if len(off) != edges+1 || len(topicIdx) != len(topicP) {
		return nil, fmt.Errorf("tic: binary payload arrays inconsistent (%d offsets, %d idx, %d p)",
			len(off), len(topicIdx), len(topicP))
	}
	if len(maxP) != edges {
		return nil, fmt.Errorf("tic: binary payload has %d maxP entries for %d edges", len(maxP), edges)
	}
	if off[0] != 0 || off[edges] != int32(len(topicIdx)) {
		return nil, fmt.Errorf("tic: binary payload offsets span [%d,%d] for %d entries",
			off[0], off[edges], len(topicIdx))
	}
	for e := 0; e < edges; e++ {
		if off[e] > off[e+1] {
			return nil, fmt.Errorf("tic: binary payload offsets not monotone at edge %d", e)
		}
	}
	m := &Model{g: g, z: z, off: off, topicIdx: topicIdx, topicP: topicP, maxP: maxP}
	if br.ZeroCopy() {
		return m, nil
	}
	// Copying path: validate every entry and cross-check the serialized
	// maxP against a recomputation, catching corrupt-but-well-shaped
	// files.
	for e := 0; e < edges; e++ {
		var mx float32
		for i := off[e]; i < off[e+1]; i++ {
			if int(topicIdx[i]) >= z {
				return nil, fmt.Errorf("tic: binary payload topic %d out of range at edge %d", topicIdx[i], e)
			}
			if p := topicP[i]; !(p >= 0 && p <= 1) { // also rejects NaN
				return nil, fmt.Errorf("tic: binary payload probability %v out of [0,1] at edge %d", p, e)
			}
			if topicP[i] > mx {
				mx = topicP[i]
			}
		}
		if maxP[e] != mx {
			return nil, fmt.Errorf("tic: binary payload maxP[%d]=%v disagrees with entries (%v)", e, maxP[e], mx)
		}
	}
	return m, nil
}
