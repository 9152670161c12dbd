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
	// CheapBounds counts the users the tier-0 scan scored: the
	// precomputation bounds it streamed into the heap before the answer
	// was settled — typically a few hundred of 10 000 users, all n only
	// when the query must look at everyone (k near n).
	CheapBounds int
	LocalBounds int // local-graph bound evaluations
	ExactEvals  int // full MIA tree evaluations
	Pruned      int // users never refined beyond the cheap bound, scored or not
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
// Tier 0 is streamed, not scanned: instead of scoring UB_P for all n
// users and heapifying them, a query walks the Index's per-topic lists
// (built once per Index, on its first query; Z·n·4 B, 0.31 MiB at
// 10 000 users and 8 topics) with one cursor each, and scores a user
// only while the threshold T = 1 + Σ_z γ_z·A_z(cursor_z) — an upper
// bound on every unscored user's UB_P — could still reach the heap top
// (see pull for the soundness argument). The pops, and so every seed,
// spread and refinement count, are those of the full scan; the work is
// proportional to the users touched (a median of ≈310 of 10 000 users
// for the benchmark's IM queries, ≈140 on a hash shard of that graph).
// The worst case, a query that must touch everyone, is O(n·(Z + log h))
// for a heap of h entries: each list position is skipped at most once,
// and each user is scored (O(Z)) and pushed once.
//
// Exact evaluation allocates nothing once an engine is warm: every
// per-query memo is a dense array stamped with the query generation
// curGen (a new query invalidates them all in O(1)), p_e(γ) is read
// through the mia.Calc's weight rows (weighed once per query, each
// node's row filled on first use), the query's MIOA trees are built
// into one recycled slab of mia.Reach records, and the heap, the cover
// and the chosen set are reused buffers. The scratch costs about 77 B
// per node (45 B here, 32 B in the mia.Calc) and 8 B per edge (the
// Calc's weight rows) — ≈1.3 MB at 10 000 nodes and 64 000 edges — plus
// the heap (16 B per entry, a few hundred entries per query), the
// frontier buckets and the slab: 16 B per tree node of the largest
// query so far, ≈0.74 MB for the 46 500 nodes a typical 10-seed query
// builds on that graph.
//
// Retention: a slab that grew past SlabKeep records per graph node
// serves an outsized query (k near n) and Trim drops it, so an engine
// parked between queries holds at most SlabKeep·16 B per node of slab.
type Engine struct {
	ix   *Index
	calc *mia.Calc
	// gamma is the current query's topic mixture, read by the bounds
	// and by prob — the p_e(γ) closure, allocated once, that each query
	// weighs the calc with.
	gamma topic.Dist
	prob  mia.EdgeProb
	// curGen is the current query generation; a slot of a …Gen array
	// equal to it is valid for this query, anything else is stale.
	curGen uint32
	// refinedGen[u] == curGen: u's bound was refined past the cheap
	// tier this query (Stats.Pruned counts the other users).
	refinedGen []uint32
	// bMemo caches B_γ(v) = Σ_z γ_z·A_z(v) within one query: the
	// tier-0 scan and the local bound both read it.
	bMemo    []float64
	bMemoGen []uint32
	// The tier-0 scan: cursor[z] is the next position of the index's
	// list z and atCursor[z] = A_z of the user there, threshold is
	// T = 1 + Σ_z γ_z·atCursor[z], and exhausted is set once every user
	// is scored. scoredGen[u] == curGen: u's UB_P is in the heap.
	cursor    []int
	atCursor  []float64
	threshold float64
	exhausted bool
	scoredGen []uint32
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
	z := ix.model.NumTopics()
	e := &Engine{
		ix:         ix,
		calc:       mia.NewCalc(g),
		refinedGen: make([]uint32, n),
		bMemo:      make([]float64, n),
		bMemoGen:   make([]uint32, n),
		cursor:     make([]int, z),
		atCursor:   make([]float64, z),
		scoredGen:  make([]uint32, n),
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
		clear(e.scoredGen)
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
	if err := e.bestEffort(opt, res); err != nil {
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
func (e *Engine) bestEffort(opt QueryOptions, res *Result) error {
	n := len(e.scoredGen)

	var heapOps uint64
	if opt.Cost != nil {
		// The tier counters land in res.Stats as the loop runs; fold the
		// final values into the accumulator on every exit path. Every
		// scored user was one heap push.
		defer func() {
			opt.Cost.OTIM.CheapBounds += uint64(res.Stats.CheapBounds)
			opt.Cost.OTIM.LocalBounds += uint64(res.Stats.LocalBounds)
			opt.Cost.OTIM.ExactEvals += uint64(res.Stats.ExactEvals)
			opt.Cost.OTIM.HeapOps += heapOps + uint64(res.Stats.CheapBounds)
		}()
	}

	h := &e.heap
	h.Reset()
	e.startScan()

	cover := e.cover
	cover.Reset()
	chosen := e.chosen
	clear(chosen)
	round := 0
	// bestFresh tracks the best exact gain seen this round for ε-early
	// selection.
	bestFreshID := int32(-1)
	bestFreshGain := -1.0
	// refined counts the users whose refinement stamp turned current.
	refined := 0
	markRefined := func(id int32) {
		if e.refinedGen[id] != e.curGen {
			e.refinedGen[id] = e.curGen
			refined++
		}
	}

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

	for len(res.Seeds) < opt.K {
		if err := opt.Context.Err(); err != nil {
			return fmt.Errorf("otim: query stopped after %d of %d seeds: %w", len(res.Seeds), opt.K, err)
		}
		// The ε test below reads top.Key, so the scan must settle the
		// true maximum before the pop.
		e.ready(res)
		if h.Len() == 0 {
			break
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
			ub := e.localBound(top.ID)
			res.Stats.LocalBounds++
			if ub > top.Key {
				ub = top.Key // bounds only tighten
			}
			h.Push(heaps.Item{ID: top.ID, Key: ub, Round: pack(round, tierLocal)})
			heapOps++
			markRefined(top.ID)

		default: // cheap (skipping local) or local: escalate to exact
			gain := cover.Gain(e.tree(top.ID, &opt))
			res.Stats.ExactEvals++
			if gain > bestFreshGain {
				bestFreshID, bestFreshGain = top.ID, gain
			}
			h.Push(heaps.Item{ID: top.ID, Key: gain, Round: pack(round, tierExact)})
			heapOps++
			markRefined(top.ID)
		}
	}

	res.Stats.Pruned = n - refined
	return nil
}

// bGamma returns B_γ(v) = Σ_z γ_z·A_z(v), memoized for the query.
// UB_P(v) is 1 + B_γ(v).
func (e *Engine) bGamma(v int) float64 {
	if e.bMemoGen[v] == e.curGen {
		return e.bMemo[v]
	}
	z := len(e.gamma)
	bv := dotGamma(e.gamma, e.ix.aggr[v*z:(v+1)*z])
	e.bMemo[v], e.bMemoGen[v] = bv, e.curGen
	return bv
}

// dotGamma returns Σ_z γ_z·row[z], summed in z order. B_γ(v) and the
// scan's threshold both go through it, so they round alike (see pull).
func dotGamma(gamma topic.Dist, row []float64) float64 {
	var s float64
	for zi, g := range gamma {
		s += g * row[zi]
	}
	return s
}

// startScan opens the tier-0 scan of the current query: every cursor at
// the head of its list, nothing scored.
func (e *Engine) startScan() {
	lists := e.ix.topicLists()
	n, z := len(e.scoredGen), len(e.cursor)
	e.exhausted = n == 0
	if e.exhausted {
		return
	}
	for zi := range e.cursor {
		e.cursor[zi] = 0
		e.atCursor[zi] = e.ix.aggr[int(lists[zi*n])*z+zi]
	}
	e.threshold = 1 + dotGamma(e.gamma, e.atCursor)
}

// ready pulls tier-0 bounds until the heap top outranks every user not
// yet scored: while the heap is empty or T ≥ its top key. Ties pull
// too, since an unscored user with an equal key and a smaller id would
// outrank the top.
func (e *Engine) ready(res *Result) {
	for !e.exhausted && (e.heap.Len() == 0 || e.threshold >= e.heap.Peek().Key) {
		e.pull(res)
	}
}

// pull scores the next unscored user of the list with the largest
// γ_z·A_z(cursor_z), pushes its UB_P at tier 0, and lowers the
// threshold. It marks the scan exhausted once every user is scored.
//
// Soundness: a user not yet scored sits at or past every cursor, so
// A_z(u) ≤ atCursor[z] for every z. With γ ≥ 0, each rounded product
// and partial sum of dotGamma is monotone in its inputs, so the scored
// bound fl(UB_P(u)) ≤ fl(T). Users are scored on their first pull only
// (scoredGen), so each user holds at most one heap entry and (key, id)
// is a strict total order: the pop sequence is the one a heap of all n
// bounds would give.
func (e *Engine) pull(res *Result) {
	lists := e.ix.topicLists()
	n, z := len(e.scoredGen), len(e.cursor)
	best := 0
	for zi := 1; zi < z; zi++ {
		if e.gamma[zi]*e.atCursor[zi] > e.gamma[best]*e.atCursor[best] {
			best = zi
		}
	}
	list := lists[best*n : (best+1)*n]
	c := e.cursor[best]
	for c < n && e.scoredGen[list[c]] == e.curGen {
		c++ // scored already through another list
	}
	if c < n {
		u := list[c]
		e.scoredGen[u] = e.curGen
		e.heap.Push(heaps.Item{ID: u, Key: 1 + e.bGamma(int(u)), Round: pack(0, tierCheap)})
		res.Stats.CheapBounds++
		c++
	}
	e.cursor[best] = c
	if c == n {
		// Every user of this list, hence every user, is scored.
		e.exhausted = true
		return
	}
	e.atCursor[best] = e.ix.aggr[int(list[c])*z+best]
	e.threshold = 1 + dotGamma(e.gamma, e.atCursor)
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
func (e *Engine) localBound(u int32) float64 {
	g := e.ix.model.Graph()
	ub := 1.0
	lo, _ := g.OutEdges(u)
	for i, p := range e.calc.OutWeights(u) {
		if p == 0 {
			continue
		}
		v := g.Dst(lo + graph.EdgeID(i))
		bv := e.bGamma(int(v))
		capV := e.ix.sigmaMax[v]
		if 1+bv < capV {
			capV = 1 + bv
		}
		ub += p * capV
	}
	return ub
}
