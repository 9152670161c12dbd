// Package mia implements maximum influence arborescences (Chen, Wang and
// Wang, KDD 2010 — reference [4] of the OCTOPUS paper). OCTOPUS uses MIA
// in two roles:
//
//  1. Influential-path visualization and exploration (Section II-E): the
//     influence of a user u is restricted to a local tree rooted at u
//     where each u→v path is the maximum-probability path, pruned below a
//     threshold θ.
//  2. A fast deterministic spread oracle inside the online engines: the
//     MIA spread of a seed set (sum of per-node activation probabilities
//     over the union of the seeds' arborescences) is computable in
//     milliseconds and is monotone in edge probabilities, which the
//     best-effort bounds rely on.
//
// Trees are built with a max-probability Dijkstra: path probability is
// the product of edge probabilities, so popping the largest-probability
// node first yields the maximum influence path to every node.
package mia

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/obs"
)

// EdgeProb supplies the activation probability of an edge (typically a
// closure over a tic.Model and a query topic distribution γ).
type EdgeProb func(graph.EdgeID) float64

// Reach is one node of an arborescence as the spread oracle sees it:
// the node and its max path probability from (MIOA) or to (MIIA) the
// root. It is all Cover reads, 16 bytes per tree node.
type Reach struct {
	ID   graph.NodeID
	Prob float64
}

// Link places Nodes[i] of a path tree under its parent.
type Link struct {
	Parent int32        // index into Tree.Nodes, -1 for the root
	Edge   graph.EdgeID // graph edge linking parent and this node
	Depth  int32
}

// Tree is a maximum influence arborescence. Nodes[0] is the root;
// children always appear after their parent (pop order of Dijkstra).
// Links[i] is the parent link of Nodes[i]; MIOA and MIIA fill it, the
// slab builds of AppendMIOA carry none.
type Tree struct {
	Root    graph.NodeID
	Forward bool // true: MIOA (root influences others); false: MIIA
	Theta   float64
	Nodes   []Reach
	Links   []Link
}

// Size returns the number of nodes including the root.
func (t *Tree) Size() int { return len(t.Nodes) }

// Spread returns Σ_v ap(root→v), the MIA influence of the root (the root
// itself contributes 1).
func (t *Tree) Spread() float64 {
	s := 0.0
	for _, n := range t.Nodes {
		s += n.Prob
	}
	return s
}

// Path returns the node sequence from the root to Nodes[i].
func (t *Tree) Path(i int) []graph.NodeID {
	var rev []graph.NodeID
	for j := int32(i); j >= 0; j = t.Links[j].Parent {
		rev = append(rev, t.Nodes[j].ID)
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// Find returns the index of node id in the tree, or -1.
func (t *Tree) Find(id graph.NodeID) int {
	for i, n := range t.Nodes {
		if n.ID == id {
			return i
		}
	}
	return -1
}

// SubtreeWeights returns, per node index, the sum of Prob over the
// node's subtree — the "effect of the user on influence" rendered as
// node size in the OCTOPUS path visualization.
func (t *Tree) SubtreeWeights() []float64 {
	w := make([]float64, len(t.Nodes))
	for i := range t.Nodes {
		w[i] = t.Nodes[i].Prob
	}
	// Children appear after parents, so a reverse sweep accumulates.
	for i := len(t.Nodes) - 1; i >= 1; i-- {
		w[t.Links[i].Parent] += w[i]
	}
	return w
}

// Calc holds reusable state for building arborescences on one graph.
// Not safe for concurrent use; create one per goroutine.
//
// Precondition: every edge probability lies in [0, 1] (tic validates
// stored probabilities and caps mixtures at 1). A path probability then
// never grows along a path — fl(p·w) ≤ p for w ≤ 1, because rounding is
// monotone — so every key the Dijkstra pushes is at least the key it
// last popped. That makes the frontier a monotone bucket queue over the
// keys ^math.Float64bits(p), which for p ∈ [0, 1] order larger
// probabilities first and equal probabilities equal. It pops in the
// strict total order (key asc, id asc) — probability descending, then
// node id ascending — in two digits:
//
//   - digit 1 is the binade of p, its 11 exponent bits (at most 2 048
//     coarse buckets). Entries of a later binade than the current one
//     wait unsorted in their binade's coarse list and are spread once,
//     when their binade becomes current;
//   - digit 2 is the top 9 mantissa bits inside the current binade (512
//     fine buckets). Occupancy bitmaps find the next non-empty bucket; a
//     bucket holding one entry pops it, and a crowded one (path products
//     tie often) is sorted once into a run that pops from its end.
//
// Buckets are linked lists threaded through one entry pool, so the
// frontier's storage is fixed at 2 560 bucket heads and 320 bitmap
// bytes, plus 16 bytes per push and per run entry of the largest build
// so far. Nothing is sized from θ: a θ = 1e-300 build uses the buckets
// a θ = 0.01 build uses.
//
// The frontier deletes lazily: improving a node's tentative probability
// pushes a new entry rather than moving the old one, and a popped entry
// whose node is already settled this build is skipped. Trees come out
// node for node identical to an indexed heap holding only each node's
// best entry, because the bucket queue pops in the strict total order
// that such a heap pops in. Hence
//
//   - a node's best entry outranks every stale entry of the same node
//     (relaxation demands strict improvement, so stale keys are strictly
//     larger), so it pops first and settles the node, and every stale
//     entry popped later is skipped without side effects;
//   - among the live entries — one per tentative node, the same set an
//     indexed heap holds — the minimum of a strict total order is
//     unique, so both heaps pop the same node at every step.
//
// Per-node build state is a 4-byte stamp (tentative or settled in this
// build, in one word) and the 8-byte tentative probability. Forward
// builds can read edge weights from per-node rows instead of calling an
// EdgeProb per edge; see Weigh. Those weighted builds (AppendMIOA) emit
// 16-byte Reach records, keep no parent bookkeeping, and skip the edge
// loop of a node whose row maximum cannot carry its probability to θ.
// The path trees of MIOA and MIIA use the same frontier and keep an
// 8-byte parent link per node.
type Calc struct {
	g *graph.Graph
	// stamp[v] == mark: v is tentative this build and best[v] holds its
	// probability; stamp[v] == mark+1: v is settled. Older stamps are
	// below mark.
	stamp []uint32
	best  []float64
	mark  uint32
	front frontier
	// link[v] is v's best path so far in a build that records links,
	// allocated by the first such build.
	link []nodeLink
	// Weight rows (see Weigh): when rows[u].gen == gen, w[OutEdges(u)]
	// holds the weights of u's out-edges and rows[u].max is at least
	// their maximum. They stay nil until the first Weigh, so Calcs that
	// only build path trees hold no per-edge storage.
	fill RowFill
	w    []float64
	rows []rowStamp
	gen  uint32
	// cands holds the out-edges of the node a weighted build expands
	// that pass θ, one slot per out-edge of the graph's widest node.
	cands []candidate
	// cost, when non-nil, accumulates ball-walk work (trees built, nodes
	// popped, edges examined) for the query that owns this Calc. Set per
	// query with SetCost and cleared afterwards — Calcs are reused.
	cost *obs.Cost
}

// rowStamp is the stamp of one node's weight row: the weight generation
// that filled it and the row's maximum, rounded up to a float32.
type rowStamp struct {
	gen uint32
	max float32
}

// candidate is a neighbour v offered probability q.
type candidate struct {
	q float64
	v graph.NodeID
}

// nodeLink is a tentative node's tree predecessor in a build that
// records links: the predecessor's index in the tree being built (it was
// settled earlier in the same build) and the graph edge between them.
type nodeLink struct {
	at   int32
	edge graph.EdgeID
}

// RowFill writes the weights of the edges [lo, hi) to dst[e−lo], one
// per edge; dst has hi−lo elements. Weights must lie in [0, 1] (see
// Calc) and depend only on the edge.
type RowFill func(lo, hi graph.EdgeID, dst []float64)

// NewCalc returns a Calc for graph g.
func NewCalc(g *graph.Graph) *Calc {
	n := g.NumNodes()
	return &Calc{g: g, stamp: make([]uint32, n), best: make([]float64, n)}
}

// SetCost directs ball-walk accounting into c's counters (nil
// disables, the default). The cost pointer must be cleared before the
// Calc is reused.
func (c *Calc) SetCost(cost *obs.Cost) { c.cost = cost }

// Weigh opens a weight generation for fill: until the next Weigh,
// AppendMIOA and OutWeights read edge weights through per-node rows. The
// first time a node's out-edges are needed in the generation, fill
// writes its row and the row's maximum is recorded; later expansions of
// the node — in any tree of the generation — read the row. Rows cost
// one float64 per graph edge and 8 bytes per node, plus 16 bytes per
// out-edge of the widest node, allocated by the first Weigh. fill must be deterministic and stay valid until the next
// Weigh.
func (c *Calc) Weigh(fill RowFill) {
	if c.w == nil {
		c.w = make([]float64, c.g.NumEdges())
		c.rows = make([]rowStamp, c.g.NumNodes())
		widest := 0
		for u := range c.g.NumNodes() {
			widest = max(widest, c.g.OutDegree(graph.NodeID(u)))
		}
		c.cands = make([]candidate, widest)
	}
	c.fill = fill
	c.gen++
	if c.gen == 0 {
		// Rows stamped 2³² generations ago must not pass as current.
		clear(c.rows)
		c.gen = 1
	}
}

// OutWeights returns the weights of u's out-edges under the current
// weight generation, in CSR order: element i belongs to edge lo+i where
// lo, _ = OutEdges(u). The slice aliases the Calc's rows and is valid
// until the next Weigh.
func (c *Calc) OutWeights(u graph.NodeID) []float64 {
	lo, hi := c.g.OutEdges(u)
	return c.row(u, lo, hi)
}

// row returns w[lo:hi] for node u, filling it on u's first use in the
// current weight generation.
func (c *Calc) row(u graph.NodeID, lo, hi graph.EdgeID) []float64 {
	if c.rows[u].gen != c.gen {
		c.fillRow(u, lo, hi)
	}
	return c.w[lo:hi:hi]
}

// fillRow fills u's row and records its maximum.
func (c *Calc) fillRow(u graph.NodeID, lo, hi graph.EdgeID) {
	w := c.w[lo:hi:hi]
	c.fill(lo, hi, w)
	m := 0.0
	for _, x := range w {
		if x > m { // a NaN weight never passes θ, so it needs no cover
			m = x
		}
	}
	c.rows[u] = rowStamp{c.gen, roundUp32(m)}
}

// roundUp32 returns the smallest float32 not below x.
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// MIOA builds the maximum influence out-arborescence of root: all nodes
// reachable with max path probability ≥ theta, capped at maxNodes nodes
// (0 means unlimited). It calls prob per relaxed edge and does not
// touch the weight rows.
func (c *Calc) MIOA(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int) *Tree {
	return c.build(prob, root, theta, maxNodes, true)
}

// MIIA builds the maximum influence in-arborescence (who influences
// root, Scenario 3's reverse exploration).
func (c *Calc) MIIA(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int) *Tree {
	return c.build(prob, root, theta, maxNodes, false)
}

func defaultTheta(theta float64) float64 {
	if theta <= 0 {
		return 1e-9 // a zero threshold would make dense graphs explode
	}
	return theta
}

// begin opens a build from root: it advances the stamp mark (clearing
// the stamps when it wraps, so no stamp from 2³¹ builds ago can pass as
// current), empties the frontier and pushes the root with probability 1.
func (c *Calc) begin(root graph.NodeID) {
	c.mark += 2
	if c.mark == 0 {
		clear(c.stamp)
		c.mark = 2
	}
	c.best[root], c.stamp[root] = 1, c.mark
	c.front.reset()
	c.front.push(probKey(1), root)
}

// account adds one finished build to the cost counters, if any.
func (c *Calc) account(nodes int, edges uint64) {
	if c.cost != nil {
		c.cost.MIA.Trees++
		c.cost.MIA.Nodes += uint64(nodes)
		c.cost.MIA.Edges += edges
	}
}

// AppendMIOA builds the arborescence MIOA would build under the current
// weight generation's weights (Weigh must have been called) and appends
// its nodes to dst instead of allocating a Tree: the tree's nodes are
// the returned slice from len(dst) on, without links. A caller that
// builds many short-lived trees under one weighting weighs once and
// keeps one slab, so building allocates nothing once the slab and the
// frontier have grown.
func (c *Calc) AppendMIOA(dst []Reach, root graph.NodeID, theta float64, maxNodes int) []Reach {
	theta = defaultTheta(theta)
	c.begin(root)
	g, stamp, best, front := c.g, c.stamp, c.best, &c.front
	tentative, settled := c.mark, c.mark+1
	base := len(dst)
	var edges uint64
	for {
		u, key, ok := front.pop()
		if !ok {
			break
		}
		if stamp[u] == settled {
			continue // stale: u was settled through a better entry
		}
		// The first entry of u to pop is its best one.
		p := keyProb(key)
		if p < theta {
			break
		}
		stamp[u] = settled
		dst = append(dst, Reach{ID: u, Prob: p})
		if maxNodes > 0 && len(dst)-base >= maxNodes {
			break
		}
		lo, hi := g.OutEdges(u)
		edges += uint64(hi - lo)
		if c.rows[u].gen != c.gen {
			c.fillRow(u, lo, hi)
		}
		if p*float64(c.rows[u].max) < theta {
			continue // no out-edge can carry p to θ
		}
		// Most out-edges fail θ, and unpredictably: gather the ones that
		// pass without a branch on the test, then relax only those.
		nbrs := g.OutNeighbors(u)
		w, cands := c.w[lo:hi:hi], c.cands[:len(nbrs)]
		w = w[:len(nbrs)]
		n := 0
		for i, v := range nbrs {
			q := p * w[i]
			cands[n] = candidate{q, v}
			pass := 0
			if q >= theta { // false for NaN
				pass = 1
			}
			n += pass
		}
		for _, x := range cands[:n] {
			if st := stamp[x.v]; st == settled || st == tentative && x.q <= best[x.v] {
				continue
			}
			best[x.v], stamp[x.v] = x.q, tentative
			front.push(probKey(x.q), x.v)
		}
	}
	c.account(len(dst)-base, edges)
	return dst
}

func (c *Calc) build(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int, forward bool) *Tree {
	t := &Tree{Root: root, Forward: forward, Theta: defaultTheta(theta)}
	if c.link == nil {
		c.link = make([]nodeLink, c.g.NumNodes())
	}
	c.begin(root)
	g, stamp, best, link, front := c.g, c.stamp, c.best, c.link, &c.front
	tentative, settled := c.mark, c.mark+1
	var edges uint64
	// relax offers v the path through the tree's node at along edge e
	// with probability q.
	relax := func(at int32, v graph.NodeID, e graph.EdgeID, q float64) {
		if !(q >= t.Theta) {
			return
		}
		if st := stamp[v]; st == settled || st == tentative && q <= best[v] {
			return
		}
		best[v], stamp[v], link[v] = q, tentative, nodeLink{at, e}
		front.push(probKey(q), v)
	}
	for {
		u, key, ok := front.pop()
		if !ok {
			break
		}
		if stamp[u] == settled {
			continue
		}
		p := keyProb(key)
		if p < t.Theta {
			break
		}
		stamp[u] = settled
		l := Link{Parent: -1}
		if u != root {
			l = Link{Parent: link[u].at, Edge: link[u].edge, Depth: t.Links[link[u].at].Depth + 1}
		}
		at := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Reach{ID: u, Prob: p})
		t.Links = append(t.Links, l)
		if maxNodes > 0 && len(t.Nodes) >= maxNodes {
			break
		}
		if forward {
			lo, hi := g.OutEdges(u)
			edges += uint64(hi - lo)
			for i, v := range g.OutNeighbors(u) {
				e := lo + graph.EdgeID(i)
				relax(at, v, e, p*prob(e))
			}
		} else {
			lo, hi := g.InSlots(u)
			edges += uint64(hi - lo)
			for sl := lo; sl < hi; sl++ {
				e := g.InEdgeID(sl)
				relax(at, g.InSrc(sl), e, p*prob(e))
			}
		}
	}
	c.account(len(t.Nodes), edges)
	return t
}

// probKey maps a probability in [0, 1] to a frontier key: larger
// probabilities get smaller keys, and equal probabilities equal keys.
func probKey(p float64) uint64 { return ^math.Float64bits(p) }

// keyProb inverts probKey.
func keyProb(k uint64) float64 { return math.Float64frombits(^k) }

// The frontier's two key digits: the 11 exponent bits below the sign,
// then the top fineBits mantissa bits.
const (
	coarseBuckets = 1 << 11
	fineBits      = 9
	fineBuckets   = 1 << fineBits
	fineShift     = 52 - fineBits
)

// frontier is the Dijkstra frontier: a two-digit monotone bucket queue
// of (key, id) entries that pops in (key asc, id asc) order, provided no
// pushed key is below the last popped one (see Calc). Buckets are singly
// linked lists of pool entries, linked by reference (pool index + 1, so
// 0 ends a list and heads an empty bucket), which links an entry without
// a branch on whether its bucket was empty. A fine bucket that holds
// more than one entry when it is reached becomes the run: its entries
// sorted so the minimum is last, each pop taking the last and each push
// into that bucket inserted in order. Path products tie often (equal
// edge weights), and a run pops k tied entries in O(k log k), where
// scanning would take O(k²).
type frontier struct {
	pool []entry
	run  []entry
	// cur is the coarse digit whose entries are spread over the fine
	// buckets (-1 before the first), runAt the fine digit of the run's
	// bucket while the run is not empty; cword and fword are the first
	// words of cbits and fbits that can have a bit set.
	cur, runAt   int
	cword, fword int
	coarse       [coarseBuckets]int32
	fine         [fineBuckets]int32
	cbits        [coarseBuckets / 64]uint64
	fbits        [fineBuckets / 64]uint64
}

// entry is one frontier entry; next is the reference of the next entry
// in its bucket, 0 at the end.
type entry struct {
	key  uint64
	id   graph.NodeID
	next int32
}

// before reports whether a pops before b.
func (a *entry) before(b *entry) bool {
	return a.key < b.key || a.key == b.key && a.id < b.id
}

// reset empties the frontier, keeping its storage.
func (f *frontier) reset() {
	f.pool, f.run = f.pool[:0], f.run[:0]
	empty(f.coarse[:], f.cbits[:])
	empty(f.fine[:], f.fbits[:])
	f.cur, f.cword, f.fword = -1, 0, 0
}

// empty clears every occupied bucket of heads, as marked in bm.
func empty(heads []int32, bm []uint64) {
	for w, m := range bm {
		for ; m != 0; m &= m - 1 {
			heads[w<<6|bits.TrailingZeros64(m)] = 0
		}
		bm[w] = 0
	}
}

// link puts pool entry i at the head of the bucket heads[b] whose
// occupancy bit lives in bm.
func link(pool []entry, i int32, heads []int32, bm []uint64, b int) {
	pool[i].next = heads[b]
	heads[b] = i + 1
	bm[b>>6] |= 1 << (b & 63)
}

func (f *frontier) push(key uint64, id graph.NodeID) {
	if cb := int(key>>52) & (coarseBuckets - 1); cb != f.cur {
		i := int32(len(f.pool))
		f.pool = append(f.pool, entry{key: key, id: id})
		link(f.pool, i, f.coarse[:], f.cbits[:], cb)
		return
	}
	fb := int(key>>fineShift) & (fineBuckets - 1)
	if fb == f.runAt && len(f.run) > 0 {
		f.insert(entry{key: key, id: id})
		return
	}
	i := int32(len(f.pool))
	f.pool = append(f.pool, entry{key: key, id: id})
	link(f.pool, i, f.fine[:], f.fbits[:], fb)
}

// insert adds x to the run in order.
func (f *frontier) insert(x entry) {
	run := append(f.run, x)
	i := len(run) - 1
	for ; i > 0 && run[i-1].before(&x); i-- {
		run[i] = run[i-1]
	}
	run[i] = x
	f.run = run
}

// pop removes the entry with the smallest key, smallest id among equal
// keys, and returns its id and key; ok is false when the frontier is
// empty.
func (f *frontier) pop() (id graph.NodeID, key uint64, ok bool) {
	if n := len(f.run) - 1; n >= 0 {
		x := f.run[n]
		f.run = f.run[:n]
		return x.id, x.key, true
	}
	pool := f.pool
	for {
		for w := f.fword; w < len(f.fbits); w++ {
			bm := f.fbits[w]
			if bm == 0 {
				continue
			}
			f.fword = w
			f.fbits[w] = bm & (bm - 1)
			b := w<<6 | bits.TrailingZeros64(bm)
			head := &f.fine[b&(fineBuckets-1)]
			x := pool[*head-1]
			*head = 0
			if x.next == 0 {
				return x.id, x.key, true
			}
			// A crowded bucket: it becomes the run.
			run := append(f.run, x)
			for i := x.next; i != 0; i = pool[i-1].next {
				run = append(run, pool[i-1])
			}
			sortRun(run)
			n := len(run) - 1
			f.run, f.runAt = run[:n], b
			return run[n].id, run[n].key, true
		}
		// The current binade is empty: make the next one current.
		cb := -1
		for w := f.cword; w < len(f.cbits); w++ {
			if bm := f.cbits[w]; bm != 0 {
				f.cword = w
				f.cbits[w] = bm & (bm - 1)
				cb = w<<6 | bits.TrailingZeros64(bm)
				break
			}
		}
		if cb < 0 {
			return 0, 0, false
		}
		f.cur, f.fword = cb, 0
		head := &f.coarse[cb&(coarseBuckets-1)]
		i := *head
		*head = 0
		if x := pool[i-1]; x.next == 0 {
			return x.id, x.key, true // a lone entry pops without a spread
		}
		for i != 0 {
			next := pool[i-1].next
			link(pool, i-1, f.fine[:], f.fbits[:], int(pool[i-1].key>>fineShift)&(fineBuckets-1))
			i = next
		}
	}
}

// sortRun orders run so that every entry pops before the ones ahead of
// it: the minimum last.
func sortRun(run []entry) {
	if len(run) > 12 {
		slices.SortFunc(run, func(a, b entry) int {
			if b.before(&a) {
				return -1
			}
			return 1 // (key, id) pairs in a frontier are distinct
		})
		return
	}
	for i := 1; i < len(run); i++ {
		x := run[i]
		j := i
		for ; j > 0 && run[j-1].before(&x); j-- {
			run[j] = run[j-1]
		}
		run[j] = x
	}
}

// Cover tracks per-node activation probabilities for a growing seed set
// under the MIA independence approximation: a node reached by several
// seeds' arborescences with probabilities p₁..pⱼ is activated with
// probability 1−Π(1−pᵢ). It is dense — one float64 per graph node plus
// the list of nodes touched since the last Reset — so Gain and Add are
// array walks over a tree's Reach records and a reused Cover allocates
// nothing.
type Cover struct {
	probs   []float64
	touched []graph.NodeID
	// spread is maintained incrementally in tree-node order by Add, so
	// the floating-point total is a pure function of the trees added and
	// their order — query spreads must be reproducible for a fixed seed.
	spread float64
}

// NewCover returns an empty cover over a graph of n nodes.
func NewCover(n int) *Cover { return &Cover{probs: make([]float64, n)} }

// Reset empties the cover in O(nodes touched), keeping its storage.
func (c *Cover) Reset() {
	for _, v := range c.touched {
		c.probs[v] = 0
	}
	c.touched = c.touched[:0]
	c.spread = 0
}

// Spread returns the current MIA spread Σ_v ap(v).
func (c *Cover) Spread() float64 { return c.spread }

// Prob returns the current activation probability of v.
func (c *Cover) Prob(v graph.NodeID) float64 { return c.probs[v] }

// Gain returns the marginal MIA spread of adding the tree with the given
// nodes: Σ_v ap_tree(v)·(1−cover(v)).
func (c *Cover) Gain(nodes []Reach) float64 {
	g := 0.0
	for _, n := range nodes {
		g += n.Prob * (1 - c.probs[n.ID])
	}
	return g
}

// Add merges the tree with the given nodes into the cover.
func (c *Cover) Add(nodes []Reach) {
	for _, n := range nodes {
		cur := c.probs[n.ID]
		if cur == 0 {
			c.touched = append(c.touched, n.ID)
		}
		next := 1 - (1-cur)*(1-n.Prob)
		c.probs[n.ID] = next
		c.spread += next - cur
	}
}

// Validate checks Tree invariants; used by tests and the HTTP layer.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("mia: empty tree")
	}
	if len(t.Links) != len(t.Nodes) {
		return fmt.Errorf("mia: %d links for %d nodes", len(t.Links), len(t.Nodes))
	}
	if t.Nodes[0].ID != t.Root || t.Links[0].Parent != -1 || t.Nodes[0].Prob != 1 {
		return fmt.Errorf("mia: malformed root node %+v %+v", t.Nodes[0], t.Links[0])
	}
	for i := 1; i < len(t.Nodes); i++ {
		n, l := t.Nodes[i], t.Links[i]
		if l.Parent < 0 || int(l.Parent) >= i {
			return fmt.Errorf("mia: node %d has forward/invalid parent %d", i, l.Parent)
		}
		if n.Prob <= 0 || n.Prob > t.Nodes[l.Parent].Prob+1e-12 {
			return fmt.Errorf("mia: node %d prob %v exceeds parent prob %v",
				i, n.Prob, t.Nodes[l.Parent].Prob)
		}
		if n.Prob < t.Theta {
			return fmt.Errorf("mia: node %d prob %v below theta %v", i, n.Prob, t.Theta)
		}
		if l.Depth != t.Links[l.Parent].Depth+1 {
			return fmt.Errorf("mia: node %d depth %d inconsistent", i, l.Depth)
		}
	}
	seen := map[graph.NodeID]bool{}
	for _, n := range t.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("mia: node %d appears twice", n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}
