// Package tic implements the topic-aware independent cascade (TIC)
// propagation model of Barbieri et al. that OCTOPUS builds on
// (Section II-B): every edge e carries activation probabilities ppᶻ_e over
// Z topics, an item is a topic distribution γ, and the effective IC
// probability of e under γ is p_e(γ) = Σ_z γ_z·ppᶻ_e.
//
// Per-edge topic probabilities are stored sparsely (most edges are active
// in a handful of topics) in a CSR-like layout aligned with graph edge
// ids. The package also provides the Monte-Carlo cascade machinery used
// for ground-truth spread measurement.
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

// EdgeProb returns p_e(γ) = Σ_z γ_z·ppᶻ_e.
func (m *Model) EdgeProb(e graph.EdgeID, gamma topic.Dist) float64 {
	p := 0.0
	for i := m.off[e]; i < m.off[e+1]; i++ {
		p += gamma[m.topicIdx[i]] * float64(m.topicP[i])
	}
	if p > 1 {
		p = 1
	}
	return p
}

// MaxProb returns the upper envelope p̄_e = max_z ppᶻ_e.
func (m *Model) MaxProb(e graph.EdgeID) float64 { return float64(m.maxP[e]) }

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
	for e := range w {
		w[e] = m.EdgeProb(graph.EdgeID(e), gamma)
	}
	return w
}

// Builder accumulates per-edge topic probabilities for a fixed graph.
type Builder struct {
	g       *graph.Graph
	z       int
	entries [][]entry // per edge
}

type entry struct {
	z uint16
	p float32
}

// NewBuilder creates a Builder for graph g with z topics.
func NewBuilder(g *graph.Graph, z int) *Builder {
	if z <= 0 || z > 1<<16 {
		panic("tic: topic count out of range")
	}
	return &Builder{g: g, z: z, entries: make([][]entry, g.NumEdges())}
}

// SetProb sets ppᶻ_e (overwrites any previous value for that topic).
func (b *Builder) SetProb(e graph.EdgeID, z int, p float64) error {
	if z < 0 || z >= b.z {
		return fmt.Errorf("tic: topic %d out of range [0,%d)", z, b.z)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("tic: probability %v out of [0,1]", p)
	}
	for i := range b.entries[e] {
		if int(b.entries[e][i].z) == z {
			b.entries[e][i].p = float32(p)
			return nil
		}
	}
	if p == 0 {
		return nil // sparse: zero entries are implicit
	}
	b.entries[e] = append(b.entries[e], entry{uint16(z), float32(p)})
	return nil
}

// SetProbs sets a dense probability vector for edge e.
func (b *Builder) SetProbs(e graph.EdgeID, probs []float64) error {
	if len(probs) != b.z {
		return fmt.Errorf("tic: %d probs for %d topics", len(probs), b.z)
	}
	b.entries[e] = b.entries[e][:0]
	for z, p := range probs {
		if err := b.SetProb(e, z, p); err != nil {
			return err
		}
	}
	return nil
}

// Build finalizes the model.
func (b *Builder) Build() *Model {
	m := &Model{
		g:    b.g,
		z:    b.z,
		off:  make([]int32, b.g.NumEdges()+1),
		maxP: make([]float32, b.g.NumEdges()),
	}
	total := 0
	for _, es := range b.entries {
		total += len(es)
	}
	m.topicIdx = make([]uint16, 0, total)
	m.topicP = make([]float32, 0, total)
	for e, es := range b.entries {
		m.off[e] = int32(len(m.topicIdx))
		var mx float32
		for _, en := range es {
			m.topicIdx = append(m.topicIdx, en.z)
			m.topicP = append(m.topicP, en.p)
			if en.p > mx {
				mx = en.p
			}
		}
		m.maxP[e] = mx
	}
	m.off[b.g.NumEdges()] = int32(len(m.topicIdx))
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
	oldN := graph.NodeID(oldG.NumNodes())
	b := NewBuilder(newG, m.z)
	var err error
	fill := func(e graph.EdgeID, u, v graph.NodeID) {
		if fallback == nil {
			return
		}
		if probs := fallback(u, v); probs != nil {
			err = b.SetProbs(e, probs)
		}
	}
	// Per-source merge walk: both CSRs keep a node's out-neighbors
	// sorted ascending, so matching edges by endpoints is a linear scan
	// — no per-edge binary search over the old graph.
	newN := graph.NodeID(newG.NumNodes())
	for u := graph.NodeID(0); u < newN && err == nil; u++ {
		lo, hi := newG.OutEdges(u)
		if u >= oldN {
			for e := lo; e < hi; e++ {
				fill(e, u, newG.Dst(e))
				if err != nil {
					break
				}
			}
			continue
		}
		olo, ohi := oldG.OutEdges(u)
		for e := lo; e < hi && err == nil; e++ {
			v := newG.Dst(e)
			for olo < ohi && oldG.Dst(olo) < v {
				olo++ // old edge absent from newG: dropped
			}
			if olo < ohi && oldG.Dst(olo) == v {
				m.EdgeTopics(olo, func(z int, p float64) {
					if err == nil {
						err = b.SetProb(e, z, p)
					}
				})
				olo++
				continue
			}
			fill(e, u, v)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("tic: remap: %w", err)
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
