// Package otim implements the online topic-aware influence maximization
// engine of Chen et al. (PVLDB 2015) — reference [3] of the OCTOPUS paper
// and the algorithm behind its keyword-based influential-user discovery
// (Section II-C).
//
// The challenge (Section I of the demo paper): every keyword query induces
// a different topic distribution γ and therefore a different probabilistic
// graph, so running a traditional IM algorithm per query is far too slow.
// The engine answers queries online with a best-effort framework: it
// estimates an upper bound of the influence spread for each user, then
// preferentially computes exact spreads for users with the largest bounds,
// pruning insignificant users. Two bound tiers are used: the
// precomputation bound seeds the heap for every user in O(Z) each, and
// the local-graph bound refines the candidates that reach the top. (The
// paper's neighborhood bound is dominated by the precomputation bound by
// construction, so it is not offered.) The offline Index holds only what
// those bounds read — per-node upper-envelope spreads and per-topic
// neighborhood aggregates — so every query, whatever its γ, runs the same
// search over it.
//
// Spread semantics. Exact evaluation uses the maximum influence
// arborescence (MIA) spread at the query threshold θ, the same
// deterministic tractable model OCTOPUS uses for path exploration; all
// bounds provably dominate the MIA spread whenever the index was built
// with θ_pre ≤ θ_query (see the derivations in DESIGN.md §2).
package otim

import (
	"fmt"
	"time"

	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/par"
	"octopus/internal/tic"
)

// BuildOptions configures offline index construction.
type BuildOptions struct {
	// ThetaPre is the MIA threshold for precomputed upper-envelope
	// spreads. It must be ≤ the smallest θ used at query time for the
	// bounds to remain sound (default 0.001).
	ThetaPre float64
	// Workers bounds the build fan-out (0 = one worker per GOMAXPROCS
	// slot, 1 = serial). The built index is identical for every worker
	// count: every parallel pass writes disjoint locations.
	Workers int

	// Deprecated: the topic-sample index is gone and nothing reads
	// Samples; it stays only so existing callers that set it compile.
	Samples int
}

// Index is the offline precomputation consumed by query Engines — the
// per-node upper-envelope spreads and the per-topic rows of the
// precomputation bound. It is a pure function of (model, options),
// built once per model and shared wholesale by every system over that
// model (a live fold whose delta leaves the graph unchanged reuses it;
// any graph change rebuilds it).
// Immutable after Build; safe for concurrent readers.
type Index struct {
	model    *tic.Model
	thetaPre float64

	// sigmaMax[v] = MIA spread of v under the upper-envelope weights p̄
	// at ThetaPre. Because IC/MIA spread is monotone in edge
	// probabilities, sigmaMax[v] ≥ σ^MIA_γ({v}) for every γ.
	sigmaMax []float64
	// aggr[u*Z+z] = A_z(u) = Σ_{v ∈ N⁺(u)} ppᶻ_{u,v}·sigmaMax[v]; the
	// precomputation bound is UB_P(u) = 1 + Σ_z γ_z·A_z(u).
	aggr []float64

	// buildStats records per-pass build durations (zero on deserialized
	// indexes — only BuildIndex fills it).
	buildStats BuildStats
}

// BuildStats breaks a from-scratch BuildIndex down by pass: the
// upper-envelope spread sweep (Sigma) and the per-topic aggregate rows
// (Aggr).
type BuildStats struct {
	Sigma time.Duration
	Aggr  time.Duration
}

// BuildStats reports the per-pass durations of a from-scratch build.
func (ix *Index) BuildStats() BuildStats { return ix.buildStats }

// Model returns the underlying TIC model.
func (ix *Index) Model() *tic.Model { return ix.model }

// SigmaMax returns the precomputed upper-envelope spread of v.
func (ix *Index) SigmaMax(v graph.NodeID) float64 { return ix.sigmaMax[v] }

// BuildIndex runs the offline precomputation: per-node upper-envelope
// MIA spreads and per-topic neighborhood aggregates.
func BuildIndex(m *tic.Model, opt BuildOptions) (*Index, error) {
	z := m.NumTopics()
	if opt.ThetaPre == 0 {
		opt.ThetaPre = 0.001
	}
	if opt.ThetaPre <= 0 || opt.ThetaPre >= 1 {
		return nil, fmt.Errorf("otim: ThetaPre %v out of (0,1)", opt.ThetaPre)
	}
	g := m.Graph()
	n := g.NumNodes()
	ix := &Index{
		model:    m,
		thetaPre: opt.ThetaPre,
		sigmaMax: make([]float64, n),
		aggr:     make([]float64, n*z),
	}

	// Pass 1: σ̄max via MIOA under p̄ for every node. Each worker owns a
	// mia.Calc weighed with p̄ once (the Dijkstra scratch is not
	// shareable) and a tree whose node slab it recycles; sigmaMax writes
	// are disjoint per node.
	passStart := time.Now()
	maxProb := func(e graph.EdgeID) float64 { return m.MaxProb(e) }
	workers := par.Resolve(opt.Workers)
	calcs := make([]*mia.Calc, workers)
	trees := make([]mia.Tree, workers)
	par.Each(opt.Workers, n, func(w, v int) {
		calc := calcs[w]
		if calc == nil {
			calc = mia.NewCalc(g)
			calc.Weigh(maxProb)
			calcs[w] = calc
		}
		t := &trees[w]
		t.Nodes = calc.AppendMIOA(t.Nodes[:0], graph.NodeID(v), opt.ThetaPre, 0)
		ix.sigmaMax[v] = t.Spread()
	})
	ix.buildStats.Sigma = time.Since(passStart)

	// Pass 2: per-topic aggregates, sharded by node — each iteration
	// writes only u's own aggr row.
	passStart = time.Now()
	par.Each(opt.Workers, n, func(_, u int) { ix.computeRow(u) })
	ix.buildStats.Aggr = time.Since(passStart)
	return ix, nil
}

// computeRow fills u's (zeroed) aggr row from the model and the
// sigmaMax values, summing in u's CSR out-edge order.
func (ix *Index) computeRow(u int) {
	m, g, z := ix.model, ix.model.Graph(), ix.model.NumTopics()
	aggr := ix.aggr[u*z : (u+1)*z]
	lo, hi := g.OutEdges(graph.NodeID(u))
	for e := lo; e < hi; e++ {
		dst := g.Dst(e)
		m.EdgeTopics(e, func(zi int, p float64) {
			aggr[zi] += p * ix.sigmaMax[dst]
		})
	}
}
