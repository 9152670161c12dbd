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
// construction, so it is not offered.) A topic-sample index precomputes
// seed sets for offline-sampled topic distributions and answers nearby
// queries.
//
// Spread semantics. Exact evaluation uses the maximum influence
// arborescence (MIA) spread at the query threshold θ, the same
// deterministic tractable model OCTOPUS uses for path exploration; all
// bounds provably dominate the MIA spread whenever the index was built
// with θ_pre ≤ θ_query (see the derivations in DESIGN.md §2).
package otim

import (
	"fmt"
	"math"
	"time"

	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/par"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// BuildOptions configures offline index construction.
type BuildOptions struct {
	// ThetaPre is the MIA threshold for precomputed upper-envelope
	// spreads. It must be ≤ the smallest θ used at query time for the
	// bounds to remain sound (default 0.001).
	ThetaPre float64
	// Samples is the number of topic-sample entries (0 disables the
	// topic-sample index). Pure per-topic distributions are always
	// included first, so Samples < Z is rounded up to Z when positive.
	Samples int
	// SampleK is the seed-set size precomputed per topic sample
	// (default 20).
	SampleK int
	// SampleTheta is the query θ used when precomputing sample seed sets
	// (default 0.01).
	SampleTheta float64
	// DirichletAlpha is the concentration of the sampled topic mixtures
	// (default 0.3: mostly-sparse mixtures, matching real keyword queries).
	DirichletAlpha float64
	// Seed drives sample generation.
	Seed uint64
	// Workers bounds the build fan-out (0 = one worker per GOMAXPROCS
	// slot, 1 = serial). For a fixed Seed the built index is identical
	// for every worker count: sample topic mixtures are pre-drawn
	// serially, and every parallel pass writes disjoint locations.
	Workers int
}

func (o *BuildOptions) fill(z int) {
	if o.ThetaPre == 0 {
		o.ThetaPre = 0.001
	}
	if o.SampleK == 0 {
		o.SampleK = 20
	}
	if o.SampleTheta == 0 {
		o.SampleTheta = 0.01
	}
	if o.DirichletAlpha == 0 {
		o.DirichletAlpha = 0.3
	}
	if o.Samples > 0 && o.Samples < z {
		o.Samples = z
	}
}

// Index is the offline precomputation consumed by query Engines — the
// per-node upper-envelope spreads, the per-topic rows of the
// precomputation bound, and the topic samples. It is a pure
// function of (model, options, seed), built once per model and shared
// wholesale by every system over that model (a live fold whose delta
// leaves the graph unchanged reuses it; any graph change rebuilds it).
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

	samples []TopicSample

	// buildStats records per-pass build durations (zero on deserialized
	// indexes — only BuildIndex fills it).
	buildStats BuildStats
}

// BuildStats breaks a from-scratch BuildIndex down by pass: the
// upper-envelope spread sweep (Sigma), the per-topic aggregate rows
// (Aggr), and the topic-sample precomputation (Samples).
type BuildStats struct {
	Sigma   time.Duration
	Aggr    time.Duration
	Samples time.Duration
}

// BuildStats reports the per-pass durations of a from-scratch build.
func (ix *Index) BuildStats() BuildStats { return ix.buildStats }

// TopicSample is one precomputed entry of the topic-sample index.
type TopicSample struct {
	Gamma   topic.Dist
	Seeds   []graph.NodeID
	Spreads []float64 // MIA spread after each seed prefix
}

// Model returns the underlying TIC model.
func (ix *Index) Model() *tic.Model { return ix.model }

// SigmaMax returns the precomputed upper-envelope spread of v.
func (ix *Index) SigmaMax(v graph.NodeID) float64 { return ix.sigmaMax[v] }

// NumSamples returns the topic-sample count.
func (ix *Index) NumSamples() int { return len(ix.samples) }

// Sample returns the i-th topic sample.
func (ix *Index) Sample(i int) TopicSample { return ix.samples[i] }

// BuildIndex runs the offline precomputation: per-node upper-envelope
// MIA spreads, per-topic neighborhood aggregates, and (optionally) the
// topic-sample seed sets.
func BuildIndex(m *tic.Model, opt BuildOptions) (*Index, error) {
	z := m.NumTopics()
	opt.fill(z)
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

	// Pass 3: topic samples, seeded with the pure topics so every
	// single-topic query has an exact-match sample. Mixtures are drawn
	// serially from the seed RNG up front (so the draw sequence never
	// depends on worker count); the per-sample queries are deterministic
	// given γ and run concurrently on per-worker engines, each writing
	// its own samples slot.
	passStart = time.Now()
	if opt.Samples > 0 {
		r := newSampleRNG(opt.Seed)
		gammas := make([]topic.Dist, opt.Samples)
		for i := range gammas {
			if i < z {
				gammas[i] = topic.Pure(i, z)
			} else {
				gammas[i] = topic.Dist(r.DirichletSym(opt.DirichletAlpha, z))
			}
		}
		ix.samples = make([]TopicSample, opt.Samples)
		engines := make([]*Engine, par.Resolve(opt.Workers))
		errs := make([]error, opt.Samples)
		par.Each(opt.Workers, opt.Samples, func(w, i int) {
			eng := engines[w]
			if eng == nil {
				eng = NewEngine(ix)
				engines[w] = eng
			}
			errs[i] = ix.runSample(eng, i, gammas[i], opt)
		})
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("otim: sample %d: %w", i, err)
			}
		}
	}
	ix.buildStats.Samples = time.Since(passStart)
	return ix, nil
}

// runSample precomputes topic sample i: the seed set for gamma under the
// sample query options. Writes only slot i; safe to fan out over
// disjoint slots.
func (ix *Index) runSample(eng *Engine, i int, gamma topic.Dist, opt BuildOptions) error {
	res, err := eng.Query(gamma, QueryOptions{
		K:          opt.SampleK,
		Theta:      opt.SampleTheta,
		UseSamples: false,
	})
	if err != nil {
		return err
	}
	ix.samples[i] = TopicSample{Gamma: gamma, Seeds: res.Seeds, Spreads: res.Spreads}
	return nil
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

// NearestSample returns the index and L1 distance of the topic sample
// closest to gamma (-1 if the sample index is empty).
func (ix *Index) NearestSample(gamma topic.Dist) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, s := range ix.samples {
		if d := gamma.L1(s.Gamma); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}
