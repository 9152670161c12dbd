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
// precomputation bound UB_P, streamed into the heap in descending order
// by a threshold scan over per-topic sorted lists (so a query scores a
// few hundred users, not all n), and the local-graph bound, which
// refines the candidates that reach the top. (The paper's neighborhood
// bound is dominated by the precomputation bound by construction, so it
// is not offered.) The offline Index holds only what those bounds read —
// per-node upper-envelope spreads and per-topic neighborhood aggregates,
// plus the per-topic lists derived from the aggregates on first use — so
// every query, whatever its γ, runs the same search over it.
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
	"sync"

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
// Immutable after Build apart from the lazily built topic lists, which
// a sync.Once publishes; safe for concurrent readers.
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

	// byTopic[z*n : (z+1)*n] lists every user by A_z(u) descending, id
	// ascending on ties: the sorted access paths of the streamed tier-0
	// scan (Engine). They are derived from aggr by the first query
	// (listsOnce) and never persisted, so the snapshot bytes do not
	// change; they cost Z·n·4 B (0.31 MiB at 10 000 users and 8 topics).
	// An Index a graph-unchanged fold shares keeps its lists too.
	listsOnce sync.Once
	byTopic   []int32
}

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
	// mia.Calc (the Dijkstra scratch is not shareable), weighed once with
	// p̄ through FillMaxProbs, and a tree whose node slab it recycles;
	// sigmaMax writes are disjoint per node.
	workers := par.Resolve(opt.Workers)
	calcs := make([]*mia.Calc, workers)
	trees := make([]mia.Tree, workers)
	par.Each(opt.Workers, n, func(w, v int) {
		calc := calcs[w]
		if calc == nil {
			calc = mia.NewCalc(g)
			calc.Weigh(m.FillMaxProbs)
			calcs[w] = calc
		}
		t := &trees[w]
		t.Nodes = calc.AppendMIOA(t.Nodes[:0], graph.NodeID(v), opt.ThetaPre, 0)
		ix.sigmaMax[v] = t.Spread()
	})

	// Pass 2: per-topic aggregates, sharded by node — each iteration
	// writes only u's own aggr row.
	par.Each(opt.Workers, n, func(_, u int) { ix.computeRow(u) })
	return ix, nil
}

// topicLists returns the per-topic sorted lists, building them on the
// first call.
func (ix *Index) topicLists() []int32 {
	ix.listsOnce.Do(ix.buildTopicLists)
	return ix.byTopic
}

// keyed is one (A_z(u), u) pair of a topic list under construction,
// its key in orderedBits form.
type keyed struct {
	key uint64
	id  int32
}

// orderedBits maps f to a uint64 that orders as f does.
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// buildTopicLists sorts the users once per topic by their aggregate:
// a stable LSD radix sort of (key, id) pairs that start in id order,
// on complemented key bytes, so keys come out descending and ids
// ascending among equal keys. A byte all keys share is not scattered. At
// 10 000 users and 8 topics it takes ≈4 ms, against ≈18 ms for a
// comparison sort.
func (ix *Index) buildTopicLists() {
	z, n := ix.model.NumTopics(), len(ix.sigmaMax)
	lists := make([]int32, z*n)
	src, dst := make([]keyed, n), make([]keyed, n)
	for zi := 0; zi < z; zi++ {
		for u := range src {
			src[u] = keyed{key: orderedBits(ix.aggr[u*z+zi]), id: int32(u)}
		}
		for shift := 0; shift < 64; shift += 8 {
			var at [256]int
			for _, p := range src {
				at[^byte(p.key>>shift)]++
			}
			if n == 0 || at[^byte(src[0].key>>shift)] == n {
				continue
			}
			pos := 0
			for d, c := range at {
				at[d] = pos
				pos += c
			}
			for _, p := range src {
				d := ^byte(p.key >> shift)
				dst[at[d]] = p
				at[d]++
			}
			src, dst = dst, src
		}
		list := lists[zi*n : (zi+1)*n]
		for i, p := range src {
			list[i] = p.id
		}
	}
	ix.byTopic = lists
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
