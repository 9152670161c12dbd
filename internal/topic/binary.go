package topic

import (
	"fmt"
	"io"

	"octopus/internal/arena"
	"octopus/internal/binio"
)

// Binary payload format. Version 2 stores the per-topic keyword rows
// as one contiguous 8-aligned pool of z×|V| float64s, so a zero-copy
// reader aliases the whole probability table out of a mapped snapshot
// and the in-memory rows become subslices of it. Probabilities
// round-trip exactly (raw float64 bits), so a model loaded from a
// snapshot infers byte-identical γ distributions. Any other version is
// rejected: snapshots are regenerated, not migrated.
const topicBinaryVersion = 2

// WriteBinary serializes the keyword/topic model in the current
// (aligned, version 2) format.
func WriteBinary(w io.Writer, m *Model) error {
	bw := binio.NewWriter(w)
	bw.U8(topicBinaryVersion)
	bw.U32(uint32(m.z))
	bw.Strs(m.vocab)
	bw.Align8()
	bw.F64s(m.prior)
	bw.Align8()
	bw.U64(uint64(m.z) * uint64(len(m.vocab)))
	for _, row := range m.pwz {
		for _, p := range row {
			bw.F64(p)
		}
	}
	if m.topicNames != nil {
		bw.U8(1)
		bw.Strs(m.topicNames)
	} else {
		bw.U8(0)
	}
	return bw.Flush()
}

// ReadView parses a binary payload through an arena reader. Zero-copy
// mode aliases the p(w|z) pool into the reader's backing bytes and
// skips the O(z×|V|) probability revalidation; the vocabulary map is
// always rebuilt on the heap.
func ReadView(br *arena.Reader) (*Model, error) {
	version := br.U8()
	if br.Err() == nil && version != topicBinaryVersion {
		return nil, fmt.Errorf("topic: snapshot generation %d is not supported; regenerate with `octopus build`", version)
	}
	z := int(br.U32())
	if br.Err() == nil && (z <= 0 || z > 1<<16) {
		return nil, fmt.Errorf("topic: binary payload topic count %d out of range", z)
	}
	vocab := br.Strs()
	br.Align8()
	prior := Dist(br.F64s())
	br.Align8()
	pool := br.F64s()
	var pwz [][]float64
	if br.Err() == nil {
		if len(pool) != z*len(vocab) {
			return nil, fmt.Errorf("topic: binary payload pool has %d entries for %d topics × %d keywords",
				len(pool), z, len(vocab))
		}
		pwz = make([][]float64, z)
		for zi := 0; zi < z; zi++ {
			pwz[zi] = pool[zi*len(vocab) : (zi+1)*len(vocab)]
		}
	}
	var names []string
	if hasNames := br.U8(); br.Err() == nil && hasNames == 1 {
		names = br.Strs()
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("topic: read binary: %w", err)
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("topic: binary payload has empty vocabulary")
	}
	if len(prior) != z {
		return nil, fmt.Errorf("topic: binary payload prior has %d entries for %d topics", len(prior), z)
	}
	m := &Model{
		vocab:   vocab,
		vocabID: make(map[string]int, len(vocab)),
		z:       z,
		pwz:     pwz,
		prior:   prior,
	}
	for i, w := range vocab {
		if w == "" {
			return nil, fmt.Errorf("topic: binary payload empty keyword at index %d", i)
		}
		if _, dup := m.vocabID[w]; dup {
			return nil, fmt.Errorf("topic: binary payload duplicate keyword %q", w)
		}
		m.vocabID[w] = i
	}
	if !br.ZeroCopy() {
		for zi, row := range pwz {
			for wi, p := range row {
				if !(p >= 0 && p <= 1) { // also rejects NaN
					return nil, fmt.Errorf("topic: binary payload p(w|z)[%d][%d] = %v invalid", zi, wi, p)
				}
			}
		}
	}
	if err := prior.Validate(); err != nil {
		return nil, fmt.Errorf("topic: binary payload prior: %w", err)
	}
	if names != nil {
		if err := m.SetTopicNames(names); err != nil {
			return nil, fmt.Errorf("topic: binary payload: %w", err)
		}
	}
	return m, nil
}
