package otim

import (
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/im"
	"octopus/internal/mia"
	"octopus/internal/ris"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// NaiveMethod selects the traditional IM algorithm the naive baseline
// runs after materializing all edge probabilities.
type NaiveMethod int

const (
	// NaiveIMM materializes weights then runs IMM (RIS-based, the
	// strongest practical offline algorithm).
	NaiveIMM NaiveMethod = iota
	// NaiveMIAGreedy materializes weights then runs exhaustive MIA
	// greedy: exact evaluation of every user per round, no bounds —
	// isolating the benefit of the best-effort pruning.
	NaiveMIAGreedy
	// NaiveDegreeDiscount materializes weights then runs the
	// degree-discount heuristic (fast but weaker quality).
	NaiveDegreeDiscount
)

// NaiveResult reports the naive baseline's answer.
type NaiveResult struct {
	Seeds   []graph.NodeID
	Spreads []float64 // MIA spreads of seed prefixes (comparable to Engine)
	// EdgesMaterialized is the per-query edge-probability work the
	// online engine avoids.
	EdgesMaterialized int
}

// NaiveQuery is the straw-man of Section I: "compute pp_{u,v} for each
// edge given the query and then employ the traditional IM algorithms".
// It recomputes every edge probability per query and runs the chosen
// offline algorithm on the materialized graph.
func NaiveQuery(m *tic.Model, gamma topic.Dist, k int, method NaiveMethod, theta float64, seed uint64) (*NaiveResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("otim: naive k must be positive")
	}
	if theta == 0 {
		theta = 0.01
	}
	w := m.Weights(gamma) // the unavoidable per-query cost
	g := m.Graph()
	res := &NaiveResult{EdgesMaterialized: len(w)}

	switch method {
	case NaiveIMM:
		r, err := ris.IMM(g, w, ris.IMMOptions{K: k, Epsilon: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}
		res.Seeds = r.Seeds

	case NaiveMIAGreedy:
		calc := mia.NewCalc(g)
		prob := func(e graph.EdgeID) float64 { return w[e] }
		cover := mia.NewCover(g.NumNodes())
		chosen := make([]bool, g.NumNodes())
		for len(res.Seeds) < k {
			var best graph.NodeID = -1
			bestGain := -1.0
			var bestTree *mia.Tree
			for u := 0; u < g.NumNodes(); u++ {
				if chosen[u] {
					continue
				}
				tree := calc.MIOA(prob, graph.NodeID(u), theta, 0)
				if gain := cover.Gain(tree.Nodes); gain > bestGain {
					best, bestGain, bestTree = graph.NodeID(u), gain, tree
				}
			}
			if best < 0 {
				break
			}
			chosen[best] = true
			cover.Add(bestTree.Nodes)
			res.Seeds = append(res.Seeds, best)
		}

	case NaiveDegreeDiscount:
		res.Seeds = im.DegreeDiscount(g, w, k)

	default:
		return nil, fmt.Errorf("otim: unknown naive method %d", method)
	}

	// Evaluate prefixes under the same MIA semantics as the engine.
	calc := mia.NewCalc(g)
	prob := func(e graph.EdgeID) float64 { return w[e] }
	cover := mia.NewCover(g.NumNodes())
	res.Spreads = make([]float64, len(res.Seeds))
	for i, s := range res.Seeds {
		cover.Add(calc.MIOA(prob, s, theta, 0).Nodes)
		res.Spreads[i] = cover.Spread()
	}
	return res, nil
}
