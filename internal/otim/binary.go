package otim

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/tic"
)

// Binary payload format: θ_pre and the two precomputed bound arrays.
// Loading re-binds them to a TIC model instead of repeating the per-node
// MIA precomputation. Each bulk array sits on an 8-byte boundary so a
// zero-copy reader aliases it out of a mapped snapshot. Any other version
// is rejected: snapshots are regenerated, not migrated.
const otimBinaryVersion = 6

// WriteBinary serializes the index arrays in the current (aligned,
// version 6) format. The model is serialized separately; ReadView
// re-binds to it.
func WriteBinary(w io.Writer, ix *Index) error {
	bw := binio.NewWriter(w)
	bw.U8(otimBinaryVersion)
	bw.F64(ix.thetaPre)
	bw.Align8()
	bw.F64s(ix.sigmaMax)
	bw.Align8()
	bw.F64s(ix.aggr)
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. Zero-copy
// mode aliases the bound arrays into the reader's backing bytes; the
// shape checks run in both modes.
func ReadView(br *arena.Reader, m *tic.Model) (*Index, error) {
	version := br.U8()
	if br.Err() == nil && version != otimBinaryVersion {
		return nil, fmt.Errorf("otim: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	ix := &Index{model: m}
	ix.thetaPre = br.F64()
	br.Align8()
	ix.sigmaMax = br.F64s()
	br.Align8()
	ix.aggr = br.F64s()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("otim: read binary: %w", err)
	}
	n, z := m.Graph().NumNodes(), m.NumTopics()
	if ix.thetaPre <= 0 || ix.thetaPre >= 1 {
		return nil, fmt.Errorf("otim: binary payload thetaPre %v out of (0,1)", ix.thetaPre)
	}
	if len(ix.sigmaMax) != n || len(ix.aggr) != n*z {
		return nil, fmt.Errorf("otim: binary payload arrays sized (%d,%d) for n=%d z=%d",
			len(ix.sigmaMax), len(ix.aggr), n, z)
	}
	return ix, nil
}
