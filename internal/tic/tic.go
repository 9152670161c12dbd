// Package tic implements the topic-aware independent cascade (TIC)
// propagation model of Barbieri et al. that OCTOPUS builds on
// (Section II-B): every edge e carries activation probabilities ppᶻ_e over
// Z topics, an item is a topic distribution γ, and the effective IC
// probability of e under γ is p_e(γ) = Σ_z γ_z·ppᶻ_e.
//
// Per-edge topic probabilities are stored sparsely (most edges are active
// in a handful of topics) in a CSR-like layout aligned with graph edge
// ids. A Builder appends into that layout directly, so it takes edges
// in ascending id order and rejects an earlier edge with an error; every
// producer (EM export, the synthetic ground truth, Remap) walks edges
// that way. The package also provides the Monte-Carlo cascade machinery
// used for ground-truth spread measurement.
package tic

import (
	"fmt"
	"math"

	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/topic"
)

// Model binds a graph to per-edge per-topic activation probabilities.
// Immutable after Build; safe for concurrent readers.
type Model struct {
	g *graph.Graph
	z int

	// Sparse per-edge probabilities: entries for edge e live in
	// [off[e], off[e+1]).
	off      []int32
	topicIdx []uint16
	topicP   []float32

	// maxP[e] = max_z ppᶻ_e — the upper envelope used by every bound in
	// the online engines (spread is monotone in edge probabilities).
	maxP []float32
}

// Graph returns the underlying graph.
func (m *Model) Graph() *graph.Graph { return m.g }

// NumTopics returns Z.
func (m *Model) NumTopics() int { return m.z }

// EdgeProb returns p_e(γ) = Σ_z γ_z·ppᶻ_e, capped at 1.
func (m *Model) EdgeProb(e graph.EdgeID, gamma topic.Dist) float64 {
	return m.mix(m.off[e], m.off[e+1], gamma)
}

// FillProbs writes p_e(γ) of every edge e in [lo, hi) to dst[e−lo] —
// the bits EdgeProb returns, in one pass over the edges' entries.
func (m *Model) FillProbs(lo, hi graph.EdgeID, gamma topic.Dist, dst []float64) {
	off := m.off[lo : hi+1]
	dst = dst[:len(off)-1]
	for i := range dst {
		dst[i] = m.mix(off[i], off[i+1], gamma)
	}
}

// mix returns Σ γ_z·ppᶻ over the entries [a, b), summed in entry order
// and capped at 1.
func (m *Model) mix(a, b int32, gamma topic.Dist) float64 {
	idx, ps := m.topicIdx[a:b], m.topicP[a:b]
	ps = ps[:len(idx)]
	p := 0.0
	for i, z := range idx {
		p += gamma[z] * float64(ps[i])
	}
	if p > 1 {
		p = 1
	}
	return p
}

// MaxProb returns the upper envelope p̄_e = max_z ppᶻ_e.
func (m *Model) MaxProb(e graph.EdgeID) float64 { return float64(m.maxP[e]) }

// FillMaxProbs writes p̄_e of every edge e in [lo, hi) to dst[e−lo].
func (m *Model) FillMaxProbs(lo, hi graph.EdgeID, dst []float64) {
	mp := m.maxP[lo:hi]
	dst = dst[:len(mp)]
	for i, p := range mp {
		dst[i] = float64(p)
	}
}

// TopicProb returns ppᶻ_e for a single topic.
func (m *Model) TopicProb(e graph.EdgeID, z int) float64 {
	for i := m.off[e]; i < m.off[e+1]; i++ {
		if int(m.topicIdx[i]) == z {
			return float64(m.topicP[i])
		}
	}
	return 0
}

// EdgeTopics calls fn for every non-zero topic probability of edge e.
func (m *Model) EdgeTopics(e graph.EdgeID, fn func(z int, p float64)) {
	for i := m.off[e]; i < m.off[e+1]; i++ {
		fn(int(m.topicIdx[i]), float64(m.topicP[i]))
	}
}

// Weights materializes p_e(γ) for every edge — the per-query step the
// online engines avoid (Section I: "a straightforward solution … is
// extremely expensive"). The result is indexed by EdgeID.
func (m *Model) Weights(gamma topic.Dist) []float64 {
	w := make([]float64, m.g.NumEdges())
	m.FillProbs(0, graph.EdgeID(len(w)), gamma, w)
	return w
}

// Builder writes per-edge topic probabilities straight into a model's
// CSR arrays, in ascending edge order: setting edge e closes the rows
// before it, and setting an earlier edge is an error. Within the open
// row, SetProb keeps one entry per topic in insertion order (an
// overwrite keeps its position), SetProbs replaces the row, and zero
// probabilities stay implicit.
type Builder struct {
	m   *Model
	row graph.EdgeID // the open row: entries [m.off[row], len(m.topicIdx))
}

// NewBuilder creates a Builder for graph g with z topics.
func NewBuilder(g *graph.Graph, z int) *Builder {
	if z <= 0 || z > 1<<16 {
		panic("tic: topic count out of range")
	}
	// One entry per edge up front: a few growth steps at any density.
	M := g.NumEdges()
	return &Builder{m: &Model{g: g, z: z, off: make([]int32, M+1),
		topicIdx: make([]uint16, 0, M), topicP: make([]float32, 0, M)}}
}

// open makes e the open row, closing every row before it.
func (b *Builder) open(e graph.EdgeID) error {
	if e < 0 || int(e) >= b.m.g.NumEdges() {
		return fmt.Errorf("tic: edge %d out of range [0,%d)", e, b.m.g.NumEdges())
	}
	if e < b.row {
		return fmt.Errorf("tic: edge %d set after edge %d; edges must be set in ascending order", e, b.row)
	}
	for end := int32(len(b.m.topicIdx)); b.row < e; {
		b.row++
		b.m.off[b.row] = end
	}
	return nil
}

// SetProb sets ppᶻ_e (overwrites any previous value for that topic).
func (b *Builder) SetProb(e graph.EdgeID, z int, p float64) error {
	if z < 0 || z >= b.m.z {
		return fmt.Errorf("tic: topic %d out of range [0,%d)", z, b.m.z)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("tic: probability %v out of [0,1]", p)
	}
	if err := b.open(e); err != nil {
		return err
	}
	m := b.m
	for i := int(m.off[e]); i < len(m.topicIdx); i++ {
		if int(m.topicIdx[i]) == z {
			m.topicP[i] = float32(p)
			return nil
		}
	}
	if p == 0 {
		return nil // sparse: zero entries are implicit
	}
	m.topicIdx = append(m.topicIdx, uint16(z))
	m.topicP = append(m.topicP, float32(p))
	return nil
}

// SetProbs sets a dense probability vector for edge e.
func (b *Builder) SetProbs(e graph.EdgeID, probs []float64) error {
	if len(probs) != b.m.z {
		return fmt.Errorf("tic: %d probs for %d topics", len(probs), b.m.z)
	}
	if err := b.open(e); err != nil {
		return err
	}
	b.m.topicIdx, b.m.topicP = b.m.topicIdx[:b.m.off[e]], b.m.topicP[:b.m.off[e]]
	for z, p := range probs {
		if err := b.SetProb(e, z, p); err != nil {
			return err
		}
	}
	return nil
}

// Build closes the remaining rows, derives the maxP envelope and
// returns the model. The Builder is spent: any later set is an error.
func (b *Builder) Build() *Model {
	m, M := b.m, graph.EdgeID(b.m.g.NumEdges())
	for end := int32(len(m.topicIdx)); b.row < M; {
		b.row++
		m.off[b.row] = end
	}
	m.maxP = make([]float32, M)
	for e := range m.maxP {
		for _, p := range m.topicP[m.off[e]:m.off[e+1]] {
			m.maxP[e] = max(m.maxP[e], p)
		}
	}
	return m
}

// Remap rebuilds m's per-edge topic probabilities onto a different graph
// newG, matching edges by their (src,dst) endpoints. Edges of newG that
// also exist in m's graph copy their probabilities; edges absent from it
// (new edges, or edges whose endpoints exceed the old node count) get
// the probabilities returned by fallback, or all-zero when fallback is
// nil or returns nil. Edges of m's graph missing from newG are dropped.
//
// This is the core of both snapshot folding in the streaming subsystem
// (extend a learned model to a grown graph, priors for the new edges)
// and holdout experiments (restrict a model to a subgraph).
func Remap(m *Model, newG *graph.Graph, fallback func(u, v graph.NodeID) []float64) (*Model, error) {
	oldG := m.g
	b := NewBuilder(newG, m.z)
	// Per-source merge walk: both CSRs keep a node's out-neighbors
	// sorted ascending, so matching edges by endpoints is a linear scan
	// — no per-edge binary search over the old graph — and the new
	// edges come in ascending id order, as the Builder takes them.
	for u := graph.NodeID(0); int(u) < newG.NumNodes(); u++ {
		var olo, ohi graph.EdgeID // u's old edges; none for a new node
		if int(u) < oldG.NumNodes() {
			olo, ohi = oldG.OutEdges(u)
		}
		lo, hi := newG.OutEdges(u)
		for e := lo; e < hi; e++ {
			v := newG.Dst(e)
			for olo < ohi && oldG.Dst(olo) < v {
				olo++ // old edge absent from newG: dropped
			}
			var err error
			switch {
			case olo < ohi && oldG.Dst(olo) == v:
				for i := m.off[olo]; i < m.off[olo+1] && err == nil; i++ {
					err = b.SetProb(e, int(m.topicIdx[i]), float64(m.topicP[i]))
				}
				olo++
			case fallback != nil:
				if probs := fallback(u, v); probs != nil {
					err = b.SetProbs(e, probs)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("tic: remap: %w", err)
			}
		}
	}
	return b.Build(), nil
}

// Simulator holds reusable state for IC cascade simulation. Not safe for
// concurrent use; create one per goroutine (Clone is cheap).
type Simulator struct {
	m     *Model
	stamp []uint32
	epoch uint32
	queue []graph.NodeID
}

// NewSimulator returns a Simulator for model m.
func NewSimulator(m *Model) *Simulator {
	return &Simulator{m: m, stamp: make([]uint32, m.g.NumNodes()), epoch: 0}
}

// Cascade runs one IC simulation from seeds under γ and returns the
// number of activated nodes (including seeds). If trace is non-nil it is
// called for every successful activation edge (u,v,e).
func (s *Simulator) Cascade(seeds []graph.NodeID, gamma topic.Dist, r *rng.Source,
	trace func(u, v graph.NodeID, e graph.EdgeID)) int {

	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	g := s.m.g
	q := s.queue[:0]
	for _, u := range seeds {
		if s.stamp[u] != s.epoch {
			s.stamp[u] = s.epoch
			q = append(q, u)
		}
	}
	activated := len(q)
	for i := 0; i < len(q); i++ {
		u := q[i]
		lo, hi := g.OutEdges(u)
		for e := lo; e < hi; e++ {
			v := g.Dst(e)
			if s.stamp[v] == s.epoch {
				continue
			}
			if r.Float64() < s.m.EdgeProb(e, gamma) {
				s.stamp[v] = s.epoch
				q = append(q, v)
				activated++
				if trace != nil {
					trace(u, v, e)
				}
			}
		}
	}
	s.queue = q
	return activated
}

// EstimateSpread returns the Monte-Carlo estimate of σ_γ(seeds) over the
// given number of cascade samples.
func (s *Simulator) EstimateSpread(seeds []graph.NodeID, gamma topic.Dist,
	samples int, r *rng.Source) float64 {

	if samples <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < samples; i++ {
		total += s.Cascade(seeds, gamma, r, nil)
	}
	return float64(total) / float64(samples)
}
