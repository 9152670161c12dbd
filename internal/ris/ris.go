// Package ris implements reverse-influence sampling (Borgs et al.)
// rooted in a target audience: the spread estimator and greedy
// max-coverage seed picker behind the targeted-IM service
// (core.DiscoverTargetedInfluencers).
//
// A reverse-reachable (RR) set for root v under edge probabilities p is
// the random set of nodes that can reach v in the graph where each edge e
// is kept independently with probability p_e. For any seed set S,
// n·E[S ∩ RR ≠ ∅] equals the influence spread σ(S).
//
// A request's RR sets live in one flat table (Collection), and every
// estimate comes from coverage counts over it: a seed set's spread is
// scale · (sets it covers) / (sets drawn), so a single seed's spread is
// scale · (sets holding it) / (sets drawn), read off the inverted index
// that SelectSeeds builds anyway.
package ris

import (
	"slices"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Collection is a set of RR samples over a fixed graph and edge-weight
// function, held as one CSR table: RR set i is nodes[off[i]:off[i+1]],
// its root first and then the nodes in the order the reverse BFS
// reached them; a set holds each node at most once. Offsets are ints,
// so no table size can overflow them. Immutable after generation.
type Collection struct {
	// n is the node-id space (graph node count) used for indexing.
	n int
	// scale is the estimate numerator: the size of the target universe
	// RR roots were drawn from.
	scale int
	off   []int
	nodes []graph.NodeID
}

// GenerateTargeted draws count RR sets whose roots are sampled uniformly
// from the given target users — the substrate for targeted influence
// maximization (Li, Zhang, Tan, PVLDB 2015, reference [7] of the
// OCTOPUS paper): maximizing influence *over a target audience* (for
// example one community, or users interested in a product category)
// rather than the whole network. Estimates over a collection built this
// way approximate the expected number of activated TARGET users, scaled
// by |targets| instead of n. An edge is kept with probability
// m.EdgeProb(e, gamma). cost, when non-nil, accumulates the sampling
// work (RR sets drawn, nodes reached, in-edges examined).
func GenerateTargeted(m *tic.Model, gamma topic.Dist, targets []graph.NodeID,
	count int, r *rng.Source, cost *obs.Cost) *Collection {

	if len(targets) == 0 {
		return &Collection{}
	}
	g := m.Graph()
	n := g.NumNodes()
	c := &Collection{n: n, scale: len(targets), off: make([]int, 1, count+1)}
	// The reverse BFS queue is the set itself: a set appends its nodes
	// to the table and one offset closes it. stamp[v] == i marks v as in
	// set i. A set holds its root and at most n nodes, so with n free
	// entries at a set boundary the table never grows inside a set;
	// when room runs short it grows to the total the sets so far
	// project, plus a quarter, so it typically grows once whatever
	// count is.
	nodes := make([]graph.NodeID, 0, count+n)
	stamp := make([]int, n)
	var edges uint64
	for i := 1; i <= count; i++ {
		if cap(nodes)-len(nodes) < n {
			nodes = slices.Grow(nodes, int(float64(len(nodes))/float64(i-1)*float64(count-i+1)*1.25)+n)
		}
		root := targets[r.Intn(len(targets))]
		stamp[root] = i
		nodes = append(nodes, root)
		for j := c.off[i-1]; j < len(nodes); j++ {
			lo, hi := g.InSlots(nodes[j])
			edges += uint64(hi - lo)
			for slot := lo; slot < hi; slot++ {
				u := g.InSrc(slot)
				if stamp[u] != i && r.Float64() < m.EdgeProb(g.InEdgeID(slot), gamma) {
					stamp[u] = i
					nodes = append(nodes, u)
				}
			}
		}
		c.off = append(c.off, len(nodes))
	}
	c.nodes = nodes
	if cost != nil {
		cost.RIS.Samples += uint64(count)
		cost.RIS.Nodes += uint64(len(nodes))
		cost.RIS.Edges += edges
	}
	return c
}

// SelectSeeds greedily picks k seeds maximizing RR-set coverage. It
// returns them in pick order with each seed's own spread estimate,
// scale · (sets holding it) / (sets drawn), and the estimate of the
// whole seed set, scale · (sets covered) / (sets drawn). Greedy
// max-coverage gives the standard (1−1/e) guarantee on the sampled
// universe. k is clamped to the node count; picking stops early once no
// node covers a set left uncovered.
func (c *Collection) SelectSeeds(k int) (seeds []graph.NodeID, spreads []float64, total float64) {
	sets := len(c.off) - 1
	if k <= 0 || sets <= 0 {
		return nil, nil, 0
	}
	k = min(k, c.n)
	// Inverted index by counting sort: node v lies in the sets
	// index[at[v]:at[v+1]], ascending. at[v+1] starts at v's first
	// entry and the fill advances it to v's end, which is v+1's start.
	deg := make([]int, c.n)
	for _, v := range c.nodes {
		deg[v]++
	}
	at := make([]int, c.n+1)
	for v := 1; v < c.n; v++ {
		at[v+1] = at[v] + deg[v-1]
	}
	index := make([]int, len(c.nodes))
	for si := range sets {
		for _, v := range c.nodes[c.off[si]:c.off[si+1]] {
			index[at[v+1]] = si
			at[v+1]++
		}
	}
	coveredSet := make([]bool, sets)
	seeds, spreads = make([]graph.NodeID, 0, k), make([]float64, 0, k)
	covered := 0
	for len(seeds) < k {
		best, bestDeg := graph.NodeID(-1), -1
		for v, d := range deg {
			if d > bestDeg {
				best, bestDeg = graph.NodeID(v), d
			}
		}
		if best < 0 || bestDeg <= 0 {
			break // nothing covers any remaining set
		}
		seeds = append(seeds, best)
		spreads = append(spreads, float64(c.scale)*float64(at[best+1]-at[best])/float64(sets))
		for _, si := range index[at[best]:at[best+1]] {
			if coveredSet[si] {
				continue
			}
			coveredSet[si] = true
			covered++
			// Decrement degree of every member of the newly covered set.
			for _, u := range c.nodes[c.off[si]:c.off[si+1]] {
				deg[u]--
			}
		}
		deg[best] = -1 // never pick again
	}
	return seeds, spreads, float64(c.scale) * float64(covered) / float64(sets)
}
