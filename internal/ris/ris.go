// Package ris implements reverse-influence sampling (Borgs et al.)
// rooted in a target audience: the spread estimator and greedy
// max-coverage seed picker behind the targeted-IM service
// (core.DiscoverTargetedInfluencers).
//
// A reverse-reachable (RR) set for root v under edge probabilities p is
// the random set of nodes that can reach v in the graph where each edge e
// is kept independently with probability p_e. For any seed set S,
// n·E[S ∩ RR ≠ ∅] equals the influence spread σ(S).
package ris

import (
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Collection is a set of RR samples over a fixed graph and edge-weight
// function. Immutable after generation.
type Collection struct {
	// n is the node-id space (graph node count) used for indexing.
	n int
	// scale is the estimate numerator: the size of the target universe
	// RR roots were drawn from.
	scale int
	sets  [][]graph.NodeID
}

// NumNodes returns the root-universe size the estimates scale by.
func (c *Collection) NumNodes() int { return c.scale }

// Set returns the i-th RR set; callers must not modify it.
func (c *Collection) Set(i int) []graph.NodeID { return c.sets[i] }

// sampler carries reusable reverse-BFS state.
type sampler struct {
	g     *graph.Graph
	stamp []uint32
	epoch uint32
	queue []graph.NodeID
	// cost, when non-nil, accumulates sampling work (RR sets grown,
	// nodes reached, in-edges examined).
	cost *obs.Cost
}

func newSampler(g *graph.Graph) *sampler {
	return &sampler{g: g, stamp: make([]uint32, g.NumNodes())}
}

// sampleRR grows one RR set rooted at root; prob returns the keep
// probability of an edge id.
func (s *sampler) sampleRR(root graph.NodeID, prob func(graph.EdgeID) float64, r *rng.Source) []graph.NodeID {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	q := s.queue[:0]
	s.stamp[root] = s.epoch
	q = append(q, root)
	var edges uint64
	for i := 0; i < len(q); i++ {
		v := q[i]
		lo, hi := s.g.InSlots(v)
		edges += uint64(hi - lo)
		for slot := lo; slot < hi; slot++ {
			u := s.g.InSrc(slot)
			if s.stamp[u] == s.epoch {
				continue
			}
			if r.Float64() < prob(s.g.InEdgeID(slot)) {
				s.stamp[u] = s.epoch
				q = append(q, u)
			}
		}
	}
	s.queue = q
	if s.cost != nil {
		s.cost.RIS.Samples++
		s.cost.RIS.Nodes += uint64(len(q))
		s.cost.RIS.Edges += edges
	}
	out := make([]graph.NodeID, len(q))
	copy(out, q)
	return out
}

// GenerateTargeted draws count RR sets whose roots are sampled uniformly
// from the given target users — the substrate for targeted influence
// maximization (Li, Zhang, Tan, PVLDB 2015, reference [7] of the
// OCTOPUS paper): maximizing influence *over a target audience* (for
// example one community, or users interested in a product category)
// rather than the whole network. For a collection built this way,
// EstimateSpread approximates the expected number of activated TARGET
// users scaled by |targets| instead of n. cost, when non-nil,
// accumulates the sampling work.
func GenerateTargeted(m *tic.Model, gamma topic.Dist, targets []graph.NodeID,
	count int, r *rng.Source, cost *obs.Cost) *Collection {

	if len(targets) == 0 {
		return &Collection{n: 0, scale: 0}
	}
	g := m.Graph()
	s := newSampler(g)
	s.cost = cost
	prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
	c := &Collection{n: g.NumNodes(), scale: len(targets), sets: make([][]graph.NodeID, 0, count)}
	for i := 0; i < count; i++ {
		root := targets[r.Intn(len(targets))]
		c.sets = append(c.sets, s.sampleRR(root, prob, r))
	}
	return c
}

// EstimateSpread returns the RIS estimate of σ(seeds): n · (covered
// sets) / (total sets).
func (c *Collection) EstimateSpread(seeds []graph.NodeID) float64 {
	if len(c.sets) == 0 {
		return 0
	}
	inSeed := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		inSeed[s] = true
	}
	covered := 0
	for _, set := range c.sets {
		for _, v := range set {
			if inSeed[v] {
				covered++
				break
			}
		}
	}
	return float64(c.scale) * float64(covered) / float64(len(c.sets))
}

// SelectSeeds greedily picks k seeds maximizing RR-set coverage and
// returns them with the RIS spread estimate of the chosen set. Greedy
// max-coverage gives the standard (1−1/e) guarantee on the sampled
// universe. k is clamped to the node count.
func (c *Collection) SelectSeeds(k int) ([]graph.NodeID, float64) {
	if k <= 0 || len(c.sets) == 0 {
		return nil, 0
	}
	k = min(k, c.n)
	// Inverted index: node -> RR set ids.
	index := make([][]int32, c.n)
	for si, set := range c.sets {
		for _, v := range set {
			index[v] = append(index[v], int32(si))
		}
	}
	deg := make([]int32, c.n)
	for v := range index {
		deg[v] = int32(len(index[v]))
	}
	coveredSet := make([]bool, len(c.sets))
	seeds := make([]graph.NodeID, 0, k)
	covered := 0
	for len(seeds) < k {
		best := graph.NodeID(-1)
		var bestDeg int32 = -1
		for v := 0; v < c.n; v++ {
			if deg[v] > bestDeg {
				bestDeg = deg[v]
				best = graph.NodeID(v)
			}
		}
		if best < 0 || bestDeg <= 0 {
			break // nothing covers any remaining set
		}
		seeds = append(seeds, best)
		for _, si := range index[best] {
			if coveredSet[si] {
				continue
			}
			coveredSet[si] = true
			covered++
			// Decrement degree of every member of the newly covered set.
			for _, u := range c.sets[si] {
				deg[u]--
			}
		}
		deg[best] = -1 // never pick again
	}
	spread := float64(c.scale) * float64(covered) / float64(len(c.sets))
	return seeds, spread
}
