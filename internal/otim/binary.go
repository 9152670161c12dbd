package otim

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Binary payload format: the precomputed bound arrays and topic samples
// (mixture, seeds and prefix spreads). Loading re-binds them to a TIC
// model instead of repeating the per-node MIA precomputation. Every bulk
// array (including the per-sample metadata) sits on an 8-byte boundary
// so a zero-copy reader aliases it out of a mapped snapshot. Any other
// version is rejected: snapshots are regenerated, not migrated.
const otimBinaryVersion = 5

// WriteBinary serializes the index arrays in the current (aligned,
// version 5) format. The model is serialized separately; ReadView
// re-binds to it.
func WriteBinary(w io.Writer, ix *Index) error {
	bw := binio.NewWriter(w)
	bw.U8(otimBinaryVersion)
	bw.F64(ix.thetaPre)
	bw.Align8()
	bw.F64s(ix.sigmaMax)
	bw.Align8()
	bw.F64s(ix.aggr)
	bw.U64(uint64(len(ix.samples)))
	for _, s := range ix.samples {
		bw.Align8()
		bw.F64s(s.Gamma)
		bw.Align8()
		bw.I32s(s.Seeds)
		bw.Align8()
		bw.F64s(s.Spreads)
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. Zero-copy
// mode aliases the bound arrays and per-sample metadata into the
// reader's backing bytes and skips the per-seed range revalidation
// (shape checks still run), since mapped snapshots were CRC-framed
// when written.
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
	numSamples := int(br.U64())
	if br.Err() == nil && (numSamples < 0 || numSamples > arena.MaxLen) {
		return nil, fmt.Errorf("otim: binary payload sample count out of range")
	}
	for i := 0; i < numSamples && br.Err() == nil; i++ {
		br.Align8()
		gamma := topic.Dist(br.F64s())
		br.Align8()
		seeds := br.I32s()
		br.Align8()
		spreads := br.F64s()
		ix.samples = append(ix.samples, TopicSample{Gamma: gamma, Seeds: seeds, Spreads: spreads})
	}
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
	for i, s := range ix.samples {
		if len(s.Gamma) != z || len(s.Seeds) != len(s.Spreads) {
			return nil, fmt.Errorf("otim: binary payload sample %d malformed", i)
		}
		if br.ZeroCopy() {
			continue
		}
		for _, u := range s.Seeds {
			if u < 0 || int(u) >= n {
				return nil, fmt.Errorf("otim: binary payload sample %d seed %d out of range", i, u)
			}
		}
	}
	return ix, nil
}
