package otim

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Binary payload format: the precomputed bound arrays and topic
// samples, including each sample's pruning frontier, so a loaded index
// folds as selectively as a freshly built one. Loading re-binds them
// to a TIC model instead of repeating the per-node MIA precomputation.
// Version 3 places every bulk array (including the per-sample seed and
// spread metadata) on an 8-byte boundary so a zero-copy reader aliases
// them out of a mapped snapshot. Any other version is rejected:
// snapshots are regenerated, not migrated.
const otimBinaryVersion = 3

// WriteBinary serializes the index arrays in the current (aligned,
// version 3) format. The model is serialized separately; ReadView
// re-binds to it.
func WriteBinary(w io.Writer, ix *Index) error {
	bw := binio.NewWriter(w)
	bw.U8(otimBinaryVersion)
	bw.F64(ix.thetaPre)
	bw.F64(ix.delta)
	bw.Align8()
	bw.F64s(ix.sigmaMax)
	bw.Align8()
	bw.I32s(ix.treeSize)
	bw.Align8()
	bw.F64s(ix.aggr)
	bw.Align8()
	bw.F64s(ix.wdeg)
	bw.U64(uint64(len(ix.samples)))
	for _, s := range ix.samples {
		bw.Align8()
		bw.F64s(s.Gamma)
		bw.Align8()
		bw.I32s(s.Seeds)
		bw.Align8()
		bw.F64s(s.Spreads)
		bw.Align8()
		bw.F64s(s.Gains)
	}
	bw.Align8()
	bw.F64s(ix.sampleStop)
	ties := make([]int32, len(ix.sampleTie))
	for i, tie := range ix.sampleTie {
		if tie {
			ties[i] = 1
		}
	}
	bw.Align8()
	bw.I32s(ties)
	for _, ru := range ix.sampleRU {
		bw.Align8()
		bw.F64s(ru)
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. Zero-copy
// mode aliases the bound arrays and per-sample metadata into the
// reader's backing bytes and skips the per-seed range revalidation
// (shape checks still run), since mapped snapshots were CRC-framed
// when written. The sampleTie bools are always decoded onto the heap
// (they are stored widened to int32).
func ReadView(br *arena.Reader, m *tic.Model) (*Index, error) {
	version := br.U8()
	if br.Err() == nil && version != otimBinaryVersion {
		return nil, fmt.Errorf("otim: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	ix := &Index{model: m}
	ix.thetaPre = br.F64()
	ix.delta = br.F64()
	br.Align8()
	ix.sigmaMax = br.F64s()
	br.Align8()
	ix.treeSize = br.I32s()
	br.Align8()
	ix.aggr = br.F64s()
	br.Align8()
	ix.wdeg = br.F64s()
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
		br.Align8()
		gains := br.F64s()
		ix.samples = append(ix.samples, TopicSample{
			Gamma: gamma, Seeds: seeds, Spreads: spreads, Gains: gains,
		})
	}
	br.Align8()
	ix.sampleStop = br.F64s()
	br.Align8()
	ties := br.I32s()
	ix.sampleTie = make([]bool, len(ties))
	for i, tv := range ties {
		ix.sampleTie[i] = tv != 0
	}
	ix.sampleRU = make([][]float64, len(ix.samples))
	for i := 0; i < len(ix.samples) && br.Err() == nil; i++ {
		br.Align8()
		ix.sampleRU[i] = br.F64s()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("otim: read binary: %w", err)
	}
	n, z := m.Graph().NumNodes(), m.NumTopics()
	if ix.thetaPre <= 0 || ix.thetaPre >= 1 {
		return nil, fmt.Errorf("otim: binary payload thetaPre %v out of (0,1)", ix.thetaPre)
	}
	if len(ix.sigmaMax) != n || len(ix.treeSize) != n || len(ix.aggr) != n*z || len(ix.wdeg) != n*z {
		return nil, fmt.Errorf("otim: binary payload arrays sized (%d,%d,%d,%d) for n=%d z=%d",
			len(ix.sigmaMax), len(ix.treeSize), len(ix.aggr), len(ix.wdeg), n, z)
	}
	if len(ix.sampleStop) != len(ix.samples) || len(ix.sampleTie) != len(ix.samples) {
		return nil, fmt.Errorf("otim: binary payload has %d frontiers / %d tie flags for %d samples",
			len(ix.sampleStop), len(ix.sampleTie), len(ix.samples))
	}
	for i, s := range ix.samples {
		if len(s.Gamma) != z || len(s.Seeds) != len(s.Spreads) || len(s.Gains) != len(s.Seeds) ||
			len(ix.sampleRU[i]) != len(s.Seeds) {
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
