package stream

import (
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/topic"
)

// weightedJaccardPrior assigns per-topic activation probabilities to a
// brand-new edge (src,dst) before any cascade evidence exists for it,
// using only the base snapshot. The result has one entry per topic,
// each in [0,1]; it is *not* normalized (these are independent
// per-topic IC probabilities, not a simplex point). The new edge's
// strength is the source's typical existing edge strength, distributed
// across topics by the blend of the endpoints' topic profiles and
// discounted by their weighted-Jaccard similarity.
//
// Concretely, with a = src's outgoing topic-mass profile and b = dst's
// incoming topic-mass profile (both L1-normalized):
//
//	J    = Σ_z min(a_z,b_z) / Σ_z max(a_z,b_z)   (weighted Jaccard)
//	p_z  = m₀ · max(J, floor) · (a_z+b_z)/2
//
// where m₀ is the mean upper-envelope probability of src's existing
// out-edges (falling back to dst's in-edges, then 0.05). A small floor
// (0.02) keeps topic-disjoint or observation-free endpoints from
// producing a dead edge; endpoints with no profile at all (brand-new
// nodes) use a uniform blend with J = 0.5, an uninformed prior.
func weightedJaccardPrior(sys *core.System, src, dst graph.NodeID) topic.Dist {
	const (
		floorSim   = 0.02
		unknownSim = 0.5
		defaultM0  = 0.05
	)
	z := sys.Propagation().NumTopics()
	a := outProfile(sys, src)
	b := inProfile(sys, dst)

	m0 := meanOutEnvelope(sys, src)
	if m0 == 0 {
		m0 = meanInEnvelope(sys, dst)
	}
	if m0 == 0 {
		m0 = defaultM0
	}

	sim := unknownSim
	if a != nil && b != nil {
		sim = weightedJaccard(a, b)
		if sim < floorSim {
			sim = floorSim
		}
	}
	blend := make(topic.Dist, z)
	switch {
	case a == nil && b == nil:
		for i := range blend {
			blend[i] = 1 / float64(z)
		}
	case a == nil:
		copy(blend, b)
	case b == nil:
		copy(blend, a)
	default:
		for i := range blend {
			blend[i] = (a[i] + b[i]) / 2
		}
	}
	out := make(topic.Dist, z)
	for i := range out {
		p := m0 * sim * blend[i]
		if p > 1 {
			p = 1
		}
		out[i] = p
	}
	return out
}

// outProfile returns u's L1-normalized outgoing topic-mass profile, or
// nil when u is out of range or has no out-edge probability mass.
func outProfile(sys *core.System, u graph.NodeID) topic.Dist {
	g, m := sys.Graph(), sys.Propagation()
	if int(u) < 0 || int(u) >= g.NumNodes() {
		return nil
	}
	mass := make(topic.Dist, m.NumTopics())
	lo, hi := g.OutEdges(u)
	for e := lo; e < hi; e++ {
		m.EdgeTopics(e, func(z int, p float64) { mass[z] += p })
	}
	return normalizeOrNil(mass)
}

// inProfile returns v's L1-normalized incoming topic-mass profile, or
// nil when v is out of range or has no in-edge probability mass.
func inProfile(sys *core.System, v graph.NodeID) topic.Dist {
	g, m := sys.Graph(), sys.Propagation()
	if int(v) < 0 || int(v) >= g.NumNodes() {
		return nil
	}
	mass := make(topic.Dist, m.NumTopics())
	lo, hi := g.InSlots(v)
	for s := lo; s < hi; s++ {
		m.EdgeTopics(g.InEdgeID(s), func(z int, p float64) { mass[z] += p })
	}
	return normalizeOrNil(mass)
}

func normalizeOrNil(mass topic.Dist) topic.Dist {
	total := 0.0
	for _, v := range mass {
		total += v
	}
	if total == 0 {
		return nil
	}
	for i := range mass {
		mass[i] /= total
	}
	return mass
}

func weightedJaccard(a, b topic.Dist) float64 {
	var num, den float64
	for i := range a {
		if a[i] < b[i] {
			num += a[i]
			den += b[i]
		} else {
			num += b[i]
			den += a[i]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func meanOutEnvelope(sys *core.System, u graph.NodeID) float64 {
	g, m := sys.Graph(), sys.Propagation()
	if int(u) < 0 || int(u) >= g.NumNodes() {
		return 0
	}
	lo, hi := g.OutEdges(u)
	if lo == hi {
		return 0
	}
	sum := 0.0
	for e := lo; e < hi; e++ {
		sum += m.MaxProb(e)
	}
	return sum / float64(hi-lo)
}

func meanInEnvelope(sys *core.System, v graph.NodeID) float64 {
	g, m := sys.Graph(), sys.Propagation()
	if int(v) < 0 || int(v) >= g.NumNodes() {
		return 0
	}
	lo, hi := g.InSlots(v)
	if lo == hi {
		return 0
	}
	sum := 0.0
	for s := lo; s < hi; s++ {
		sum += m.MaxProb(g.InEdgeID(s))
	}
	return sum / float64(hi-lo)
}
