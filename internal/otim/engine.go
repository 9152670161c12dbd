package otim

import (
	"context"
	"fmt"

	"octopus/internal/graph"
	"octopus/internal/heaps"
	"octopus/internal/mia"
	"octopus/internal/obs"
	"octopus/internal/topic"
)

// QueryOptions configures a keyword-IM query.
type QueryOptions struct {
	// K is the number of seeds (required).
	K int
	// Theta is the MIA threshold defining spread semantics
	// (default 0.01; must be ≥ the index's ThetaPre for sound bounds).
	Theta float64
	// Epsilon permits (1−ε)-approximate seed picks for earlier
	// termination; 0 demands exact greedy.
	Epsilon float64
	// SkipLocalBound drops the middle refinement tier, escalating cheap
	// bounds straight to exact evaluation: the reference the local tier
	// is tested against (same answers, no more exact evaluations).
	SkipLocalBound bool
	// MaxTreeNodes caps exact-evaluation tree sizes (0 = unlimited).
	MaxTreeNodes int
	// Context cancels long queries between refinement steps. A query
	// it stops returns the context's error, never a partial seed set.
	Context context.Context
	// Cost, when non-nil, accumulates the query's engine work (bound
	// tiers, heap traffic, and — through the MIA calculator — ball-walk
	// nodes/edges). Nil skips all accounting.
	Cost *obs.Cost
}

func (o *QueryOptions) fill() error {
	if o.K <= 0 {
		return fmt.Errorf("otim: K must be positive")
	}
	if o.Theta == 0 {
		o.Theta = 0.01
	}
	// Written so that NaN fails the range checks too.
	if !(o.Theta > 0 && o.Theta < 1) {
		return fmt.Errorf("otim: Theta %v out of (0,1)", o.Theta)
	}
	if !(o.Epsilon >= 0 && o.Epsilon < 1) {
		return fmt.Errorf("otim: Epsilon %v out of [0,1)", o.Epsilon)
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return nil
}

// Stats reports the work a query performed, per bound tier.
type Stats struct {
	CheapBounds int // first-tier bound evaluations (all n, vectorized)
	LocalBounds int // local-graph bound evaluations
	ExactEvals  int // full MIA tree evaluations
	Pruned      int // users never refined beyond the cheap bound
}

// Result is the answer to a keyword-IM query.
type Result struct {
	Seeds   []graph.NodeID
	Spreads []float64 // MIA spread after each seed
	Stats   Stats
}

// Engine answers topic-aware IM queries against an Index. Not safe for
// concurrent use — create one Engine per goroutine (they share the
// immutable Index).
//
// Exact evaluation allocates nothing once an engine is warm: every
// per-query memo is a dense array stamped with the query generation
// curGen (a new query invalidates them all in O(1)), p_e(γ) is read
// through the mia.Calc's weight rows (weighed once per query, each
// node's row filled on first use), the query's MIOA trees are built
// into one recycled slab of mia.Reach records, and the tier-0 heap, the
// cover and the chosen set are reused buffers. The scratch costs about
// 89 B per node (57 B here, 32 B in the mia.Calc) and 8 B per edge (the
// Calc's weight rows) — ≈1.4 MB at 10 000 nodes and 64 000 edges — plus
// the frontier buckets and the slab: 16 B per tree node of the largest
// query so far, ≈0.74 MB for the 46 500 nodes a typical 10-seed query
// builds on that graph.
//
// Retention: a slab that grew past SlabKeep records per graph node
// serves an outsized query (k near n) and Trim drops it, so an engine
// parked between queries holds at most SlabKeep·16 B per node of slab.
type Engine struct {
	ix   *Index
	calc *mia.Calc
	// gamma is the current query's topic mixture, read by prob — the
	// p_e(γ) closure, allocated once, that each query weighs the calc
	// with.
	gamma topic.Dist
	prob  mia.EdgeProb
	// curGen is the current query generation; a slot of a …Gen array
	// equal to it is valid for this query, anything else is stale.
	curGen uint32
	// refinedGen[u] == curGen: u's bound was refined past the cheap
	// tier this query (Stats.Pruned counts the other users).
	refinedGen []uint32
	// bMemo caches B_γ(v) = Σ_z γ_z·A_z(v) within one query.
	bMemo    []float64
	bMemoGen []uint32
	// slab holds the query's MIOA trees; when treeGen[u] is current,
	// u's tree is slab[treeAt[u] : treeAt[u]+treeLen[u]]. It is
	// recycled at the start of every query, so no tree outlives one.
	slab    []mia.Reach
	treeAt  []int32
	treeLen []int32
	treeGen []uint32
	// Per-query buffers, reset by each query that uses them.
	heap   heaps.Max
	cover  *mia.Cover
	chosen []bool
}

// NewEngine creates a query engine over ix.
func NewEngine(ix *Index) *Engine {
	g := ix.model.Graph()
	n := g.NumNodes()
	e := &Engine{
		ix:         ix,
		calc:       mia.NewCalc(g),
		refinedGen: make([]uint32, n),
		bMemo:      make([]float64, n),
		bMemoGen:   make([]uint32, n),
		treeAt:     make([]int32, n),
		treeLen:    make([]int32, n),
		treeGen:    make([]uint32, n),
		cover:      mia.NewCover(n),
		chosen:     make([]bool, n),
	}
	e.prob = func(ed graph.EdgeID) float64 { return ix.model.EdgeProb(ed, e.gamma) }
	return e
}

// SlabKeep is the largest tree slab, in records per graph node, that
// Trim lets an engine keep. Queries with k ≤ 20 on the 10 000-node
// benchmark graph build at most ≈9 records per node, so they keep their
// slab; only k in the hundreds or more outgrows it.
const SlabKeep = 16

// Trim drops the tree slab when it holds more than SlabKeep records
// per graph node. Call it before parking an engine for reuse.
func (e *Engine) Trim() {
	if cap(e.slab) > SlabKeep*len(e.treeAt) {
		e.slab = nil
	}
}

// SlabCap returns the tree slab's capacity in records.
func (e *Engine) SlabCap() int { return cap(e.slab) }

// begin opens a new query generation under γ: every memo entry and tree
// of the previous query becomes stale at once, and the calc is weighed
// with p_e(γ). When the stamp wraps, the stamp arrays are zeroed so no
// entry from 2³² queries ago can pass as current.
func (e *Engine) begin(gamma topic.Dist) {
	e.curGen++
	if e.curGen == 0 {
		clear(e.refinedGen)
		clear(e.bMemoGen)
		clear(e.treeGen)
		e.curGen = 1
	}
	e.slab = e.slab[:0]
	e.gamma = gamma
	e.calc.Weigh(e.prob)
}

// tree returns u's MIOA under the current query, building it into the
// slab on first use. Within one query γ is fixed, so a candidate's tree
// never changes across seed rounds — only the cover does — and stale
// re-evaluations are O(tree) gain walks instead of Dijkstras.
func (e *Engine) tree(u graph.NodeID, opt *QueryOptions) []mia.Reach {
	if e.treeGen[u] != e.curGen {
		at := len(e.slab)
		e.slab = e.calc.AppendMIOA(e.slab, u, opt.Theta, opt.MaxTreeNodes)
		e.treeAt[u], e.treeLen[u], e.treeGen[u] = int32(at), int32(len(e.slab)-at), e.curGen
	}
	at := e.treeAt[u]
	return e.slab[at : at+e.treeLen[u]]
}

// Query finds the K seeds with maximum topic-aware influence spread
// under γ using the best-effort framework. If opt.Context ends first,
// Query returns an error wrapping the context's and no result.
func (e *Engine) Query(gamma topic.Dist, opt QueryOptions) (*Result, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	m := e.ix.model
	if len(gamma) != m.NumTopics() {
		return nil, fmt.Errorf("otim: γ has %d topics, model has %d", len(gamma), m.NumTopics())
	}
	if err := gamma.Validate(); err != nil {
		return nil, fmt.Errorf("otim: invalid γ: %w", err)
	}
	if opt.Theta < e.ix.thetaPre {
		return nil, fmt.Errorf("otim: query θ=%v below index θ_pre=%v breaks bound soundness",
			opt.Theta, e.ix.thetaPre)
	}
	res := &Result{}
	e.begin(gamma)
	if opt.Cost != nil {
		e.calc.SetCost(opt.Cost)
		defer e.calc.SetCost(nil)
	}
	if err := e.bestEffort(gamma, opt, res); err != nil {
		return nil, err
	}
	return res, nil
}

// entry encoding in the lazy heap: Round packs (round<<2 | tier).
// tier 0 = cheap bound, 1 = local bound, 2 = exact marginal gain.
const (
	tierCheap = 0
	tierLocal = 1
	tierExact = 2
)

func pack(round int, tier int) int32   { return int32(round<<2 | tier) }
func unpack(v int32) (round, tier int) { return int(v >> 2), int(v & 3) }

// bestEffort runs the greedy seed selection into res. It stops early
// only when opt.Context ends, and then returns the context's error.
func (e *Engine) bestEffort(gamma topic.Dist, opt QueryOptions, res *Result) error {
	m := e.ix.model
	n := m.Graph().NumNodes()
	z := m.NumTopics()

	var heapOps uint64
	if opt.Cost != nil {
		// The tier counters land in res.Stats as the loop runs; fold the
		// final values into the accumulator on every exit path.
		defer func() {
			opt.Cost.OTIM.CheapBounds += uint64(res.Stats.CheapBounds)
			opt.Cost.OTIM.LocalBounds += uint64(res.Stats.LocalBounds)
			opt.Cost.OTIM.ExactEvals += uint64(res.Stats.ExactEvals)
			opt.Cost.OTIM.HeapOps += heapOps
		}()
	}

	// Tier-0 bounds UB_P(u) = 1 + Σ_z γ_z·A_z(u) for every user,
	// heapified in one O(n) pass.
	h := &e.heap
	h.Fill(n, func(u int) heaps.Item {
		var ub float64
		row := e.ix.aggr[u*z : (u+1)*z]
		for zi := 0; zi < z; zi++ {
			ub += gamma[zi] * row[zi]
		}
		return heaps.Item{ID: int32(u), Key: 1 + ub, Round: pack(0, tierCheap)}
	})
	heapOps += uint64(n)
	res.Stats.CheapBounds = n

	cover := e.cover
	cover.Reset()
	chosen := e.chosen
	clear(chosen)
	round := 0
	// bestFresh tracks the best exact gain seen this round for ε-early
	// selection.
	bestFreshID := int32(-1)
	bestFreshGain := -1.0

	selectSeed := func(id int32) {
		chosen[id] = true
		cover.Add(e.tree(id, &opt))
		if res.Seeds == nil {
			k := min(opt.K, n)
			res.Seeds = make([]graph.NodeID, 0, k)
			res.Spreads = make([]float64, 0, k)
		}
		res.Seeds = append(res.Seeds, id)
		res.Spreads = append(res.Spreads, cover.Spread())
		round++
		bestFreshID, bestFreshGain = -1, -1
	}

	for len(res.Seeds) < opt.K && h.Len() > 0 {
		if err := opt.Context.Err(); err != nil {
			return fmt.Errorf("otim: query stopped after %d of %d seeds: %w", len(res.Seeds), opt.K, err)
		}
		top := h.Pop()
		heapOps++
		if chosen[top.ID] {
			continue // stale entry of an already-selected seed
		}
		topRound, topTier := unpack(top.Round)

		// ε-approximate early pick: the freshest exact gain already
		// dominates (1−ε)·(best remaining upper bound).
		if opt.Epsilon > 0 && bestFreshID >= 0 && bestFreshID != top.ID &&
			bestFreshGain >= (1-opt.Epsilon)*top.Key {
			h.Push(top) // put the candidate back
			heapOps++
			selectSeed(bestFreshID)
			continue
		}

		switch {
		case topTier == tierExact && topRound == round:
			selectSeed(top.ID)

		case topTier == tierExact: // stale marginal gain: rewalk cached tree
			gain := cover.Gain(e.tree(top.ID, &opt))
			res.Stats.ExactEvals++
			if gain > bestFreshGain {
				bestFreshID, bestFreshGain = top.ID, gain
			}
			h.Push(heaps.Item{ID: top.ID, Key: gain, Round: pack(round, tierExact)})
			heapOps++

		case topTier == tierCheap && !opt.SkipLocalBound:
			ub := e.localBound(gamma, top.ID)
			res.Stats.LocalBounds++
			if ub > top.Key {
				ub = top.Key // bounds only tighten
			}
			h.Push(heaps.Item{ID: top.ID, Key: ub, Round: pack(round, tierLocal)})
			heapOps++
			e.refinedGen[top.ID] = e.curGen

		default: // cheap (skipping local) or local: escalate to exact
			gain := cover.Gain(e.tree(top.ID, &opt))
			res.Stats.ExactEvals++
			if gain > bestFreshGain {
				bestFreshID, bestFreshGain = top.ID, gain
			}
			h.Push(heaps.Item{ID: top.ID, Key: gain, Round: pack(round, tierExact)})
			heapOps++
			e.refinedGen[top.ID] = e.curGen
		}
	}

	// Pruned = users whose refinement never went past the cheap bound.
	refined := 0
	for u := 0; u < n; u++ {
		if e.refinedGen[u] == e.curGen {
			refined++
		}
	}
	res.Stats.Pruned = n - refined
	return nil
}

// localBound computes the local-graph bound
//
//	UB_L(u) = 1 + Σ_{v∈N⁺(u)} p_{u,v}(γ) · min(σ̄max(v), 1 + B_γ(v))
//
// where B_γ(v) = Σ_z γ_z·A_z(v). Soundness: the MIA spread satisfies the
// union-bound recursion σ(u) ≤ 1 + Σ_v p_uv(γ)·σ(v), and both σ̄max(v)
// (monotonicity in edge probabilities) and 1+B_γ(v) (one more unrolling)
// dominate σ(v). UB_L is always ≤ UB_P since min(σ̄max(v),·) ≤ σ̄max(v),
// and it evaluates u's two-hop local graph — the same locality the OTIM
// paper's local-graph estimator exploits.
func (e *Engine) localBound(gamma topic.Dist, u int32) float64 {
	m := e.ix.model
	g := m.Graph()
	z := m.NumTopics()
	ub := 1.0
	lo, _ := g.OutEdges(u)
	for i, p := range e.calc.OutWeights(u) {
		if p == 0 {
			continue
		}
		v := g.Dst(lo + graph.EdgeID(i))
		var bv float64
		if e.bMemoGen[v] == e.curGen {
			bv = e.bMemo[v]
		} else {
			row := e.ix.aggr[int(v)*z : (int(v)+1)*z]
			for zi := 0; zi < z; zi++ {
				bv += gamma[zi] * row[zi]
			}
			e.bMemo[v] = bv
			e.bMemoGen[v] = e.curGen
		}
		capV := e.ix.sigmaMax[v]
		if 1+bv < capV {
			capV = 1 + bv
		}
		ub += p * capV
	}
	return ub
}
