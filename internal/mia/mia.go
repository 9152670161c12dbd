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

	"octopus/internal/graph"
	"octopus/internal/obs"
)

// EdgeProb supplies the activation probability of an edge (typically a
// closure over a tic.Model and a query topic distribution γ).
type EdgeProb func(graph.EdgeID) float64

// TreeNode is one node of an arborescence.
type TreeNode struct {
	ID     graph.NodeID
	Parent int32        // index into Tree.Nodes, -1 for the root
	Edge   graph.EdgeID // graph edge linking parent and this node
	Depth  int32
	Prob   float64 // max path probability from/to the root
}

// Tree is a maximum influence arborescence. Nodes[0] is the root;
// children always appear after their parent (pop order of Dijkstra).
type Tree struct {
	Root    graph.NodeID
	Forward bool // true: MIOA (root influences others); false: MIIA
	Theta   float64
	Nodes   []TreeNode
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
	for j := int32(i); j >= 0; j = t.Nodes[j].Parent {
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
		w[t.Nodes[i].Parent] += w[i]
	}
	return w
}

// Calc holds reusable state for building arborescences on one graph.
// Not safe for concurrent use; create one per goroutine.
//
// Precondition: every edge probability lies in [0, 1] (tic validates
// stored probabilities and EdgeProb caps mixtures at 1). A path
// probability then never grows along a path — fl(p·w) ≤ p for w ≤ 1,
// because rounding is monotone — so every key the Dijkstra pushes is
// at least the key it last popped. That makes the frontier a monotone
// radix heap: keys are ^math.Float64bits(p), which for p ∈ [0, 1]
// orders larger probabilities first, and an entry sits in bucket
// bits.Len64(key ^ last), where last is the key popped most recently.
// Bucket 0 holds exactly the entries whose key equals last; bucket b > 0
// holds keys that first differ from last at bit b−1, so every key in a
// lower bucket is smaller than every key in a higher one. A 64-bit
// occupancy mask finds the lowest non-empty bucket in O(1); emptying it
// moves last to its smallest key and spreads its entries over lower
// buckets.
//
// The frontier deletes lazily: improving a node's tentative probability
// pushes a new entry rather than moving the old one, and a popped entry
// whose node is already finalized this build ("done") is skipped. Trees
// come out node for node identical to an indexed heap holding only each
// node's best entry, because the radix heap pops in the strict total
// order (key asc, id asc) — (probability desc, id asc) — that such a
// heap pops in: keys come out in ascending order, and bucket 0, whose
// keys are all equal, pops its smallest id first. Hence
//
//   - a node's best entry outranks every stale entry of the same node
//     (relaxation demands strict improvement, so stale keys are strictly
//     larger), so it pops first and finalizes the node, and every stale
//     entry popped later is skipped without side effects;
//   - among the live entries — one per tentative node, the same set an
//     indexed heap holds — the minimum of a strict total order is
//     unique, so both heaps pop the same node at every step.
//
// Per-node build state is one 32-byte record, and the frontier's
// buckets are reused across builds. Forward builds can read edge
// weights from per-node rows instead of calling an EdgeProb per edge;
// see Weigh.
type Calc struct {
	g     *graph.Graph
	nodes []nodeState
	epoch uint32
	front radixHeap
	// Weight rows (see Weigh): when nodes[u].wgen == wgen, w[OutEdges(u)]
	// holds prob of each of u's out-edges. w stays nil until the first
	// Weigh, so Calcs that only build one-shot trees hold no per-edge
	// storage.
	prob EdgeProb
	w    []float64
	wgen uint32
	// cost, when non-nil, accumulates ball-walk work (trees built, nodes
	// popped, edges examined) for the query that owns this Calc. Set per
	// query with SetCost and cleared afterwards — Calcs are pooled.
	cost *obs.Cost
}

// nodeState is one node's build state, packed into 32 bytes so a
// relaxation touches one cache line per node.
type nodeState struct {
	best   float64      // tentative path probability; valid when seen == epoch
	parent graph.NodeID // tree predecessor on the best path so far
	pedge  graph.EdgeID // graph edge from parent
	// popAt is the node's index in the tree being built, set when it is
	// popped. It is only ever read for a node's parent — which was
	// necessarily popped earlier in the same build — so values left by
	// previous builds are never observed and need no stamp.
	popAt int32
	seen  uint32 // == epoch: best/parent/pedge belong to this build
	done  uint32 // == epoch: finalized in the tree being built
	wgen  uint32 // == Calc.wgen: the node's weight row is filled
}

// NewCalc returns a Calc for graph g.
func NewCalc(g *graph.Graph) *Calc {
	return &Calc{g: g, nodes: make([]nodeState, g.NumNodes())}
}

// SetCost directs ball-walk accounting into c's counters (nil
// disables, the default). The cost pointer must be cleared before the
// Calc returns to a pool.
func (c *Calc) SetCost(cost *obs.Cost) { c.cost = cost }

// Weigh opens a weight generation for prob: until the next Weigh,
// AppendMIOA and OutWeights read prob through per-node rows. The first
// time a node's out-edges are needed in the generation, prob is called
// once per out-edge and the values are stored; later expansions of the
// node — in any tree of the generation — read the row. Rows cost one
// float64 per graph edge, allocated by the first Weigh. prob must be
// deterministic and stay valid until the next Weigh.
func (c *Calc) Weigh(prob EdgeProb) {
	if c.w == nil {
		c.w = make([]float64, c.g.NumEdges())
	}
	c.prob = prob
	c.wgen++
	if c.wgen == 0 {
		// Rows stamped 2³² generations ago must not pass as current.
		for i := range c.nodes {
			c.nodes[i].wgen = 0
		}
		c.wgen = 1
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
	w := c.w[lo:hi:hi]
	if s := &c.nodes[u]; s.wgen != c.wgen {
		for i := range w {
			w[i] = c.prob(lo + graph.EdgeID(i))
		}
		s.wgen = c.wgen
	}
	return w
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

// AppendMIOA builds the arborescence MIOA would build under the current
// weight generation's prob (Weigh must have been called) and appends
// its nodes to dst instead of allocating a Tree: the tree is the
// returned slice from len(dst) on, with Parent indices relative to
// that start. A caller that builds many short-lived trees under one
// prob weighs once and keeps one slab, so building allocates nothing
// once the slab has grown.
func (c *Calc) AppendMIOA(dst []TreeNode, root graph.NodeID, theta float64, maxNodes int) []TreeNode {
	return c.grow(dst, nil, root, defaultTheta(theta), maxNodes, true)
}

func (c *Calc) build(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int, forward bool) *Tree {
	theta = defaultTheta(theta)
	return &Tree{Root: root, Forward: forward, Theta: theta, Nodes: c.grow(nil, prob, root, theta, maxNodes, forward)}
}

func defaultTheta(theta float64) float64 {
	if theta <= 0 {
		return 1e-9 // a zero threshold would make dense graphs explode
	}
	return theta
}

// grow runs the max-probability Dijkstra from root and appends the
// tree's nodes to dst in pop order. A nil prob reads forward weights
// from the current weight generation's rows.
func (c *Calc) grow(dst []TreeNode, prob EdgeProb, root graph.NodeID, theta float64, maxNodes int, forward bool) []TreeNode {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.nodes {
			c.nodes[i].seen, c.nodes[i].done = 0, 0
		}
		c.epoch = 1
	}
	g, ns, epoch := c.g, c.nodes, c.epoch
	base := len(dst)
	rs := &ns[root]
	rs.best, rs.parent, rs.seen = 1, -1, epoch
	c.front.reset(probKey(1))
	c.front.push(probKey(1), root)

	var edges uint64
	for {
		u, ok := c.front.pop()
		if !ok {
			break
		}
		s := &ns[u]
		if s.done == epoch {
			continue // stale: u was finalized through a better entry
		}
		// The first entry of u to pop is its best one, so best is the
		// probability it was pushed with.
		p := s.best
		if p < theta {
			break
		}
		s.done = epoch
		nd := TreeNode{ID: u, Parent: -1, Prob: p}
		if u != root {
			nd.Parent = ns[s.parent].popAt
			nd.Edge = s.pedge
			nd.Depth = dst[base+int(nd.Parent)].Depth + 1
		}
		s.popAt = int32(len(dst) - base)
		dst = append(dst, nd)
		if maxNodes > 0 && len(dst)-base >= maxNodes {
			break
		}
		switch {
		case !forward:
			lo, hi := g.InSlots(u)
			edges += uint64(hi - lo)
			for sl := lo; sl < hi; sl++ {
				e := g.InEdgeID(sl)
				c.relax(u, g.InSrc(sl), e, p*prob(e), theta)
			}
		case prob != nil:
			lo, hi := g.OutEdges(u)
			edges += uint64(hi - lo)
			for e := lo; e < hi; e++ {
				c.relax(u, g.Dst(e), e, p*prob(e), theta)
			}
		default:
			lo, hi := g.OutEdges(u)
			edges += uint64(hi - lo)
			for i, w := range c.row(u, lo, hi) {
				e := lo + graph.EdgeID(i)
				c.relax(u, g.Dst(e), e, p*w, theta)
			}
		}
	}
	if c.cost != nil {
		c.cost.MIA.Trees++
		c.cost.MIA.Nodes += uint64(len(dst) - base)
		c.cost.MIA.Edges += edges
	}
	return dst
}

// relax offers v the path through u with probability p. A NaN p is
// refused like one below theta, so no key outside the heap's range is
// ever pushed.
func (c *Calc) relax(u, v graph.NodeID, e graph.EdgeID, p, theta float64) {
	if !(p >= theta) {
		return
	}
	s := &c.nodes[v]
	if s.done == c.epoch || (s.seen == c.epoch && p <= s.best) {
		return
	}
	s.best, s.parent, s.pedge, s.seen = p, u, e, c.epoch
	c.front.push(probKey(p), v)
}

// probKey maps a probability in [0, 1] to a radix-heap key: larger
// probabilities get smaller keys, and equal probabilities equal keys.
func probKey(p float64) uint64 { return ^math.Float64bits(p) }

// radixHeap is the Dijkstra frontier: a monotone min radix heap of
// (key, id) entries that pops in (key asc, id asc) order, provided no
// pushed key is smaller than the last popped one (see Calc).
type radixHeap struct {
	last uint64 // the key popped last; every entry's key is ≥ last
	// mask bit b is set iff buckets[b] is non-empty. Keys of probabilities
	// in [0, 1] all have their top two bits set, so bucket indexes stay
	// below 63.
	mask    uint64
	buckets [64][]frontierEntry
}

// frontierEntry is one entry of the radix heap.
type frontierEntry struct {
	key uint64
	id  graph.NodeID
}

// reset empties the heap, keeping bucket storage, with every future key
// at least floor.
func (h *radixHeap) reset(floor uint64) {
	for m := h.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		h.buckets[b] = h.buckets[b][:0]
	}
	h.mask, h.last = 0, floor
}

func (h *radixHeap) push(key uint64, id graph.NodeID) {
	b := bits.Len64(key ^ h.last)
	h.buckets[b] = append(h.buckets[b], frontierEntry{key, id})
	h.mask |= 1 << b
}

// pop removes the entry with the smallest key, smallest id among equal
// keys, and returns its id; ok is false when the heap is empty.
func (h *radixHeap) pop() (id graph.NodeID, ok bool) {
	if h.mask == 0 {
		return 0, false
	}
	if h.mask&1 == 0 {
		// Bucket 0 is empty: the next key is the smallest one in the
		// lowest non-empty bucket. Make it last and respread the bucket;
		// its entries all land in lower buckets, the minima in bucket 0.
		b := bits.TrailingZeros64(h.mask)
		src := h.buckets[b]
		h.buckets[b] = src[:0]
		h.mask &^= 1 << b
		if len(src) == 1 {
			h.last = src[0].key // a lone minimum pops without a respread
			return src[0].id, true
		}
		last := src[0].key
		for _, x := range src[1:] {
			last = min(last, x.key)
		}
		h.last = last
		for _, x := range src {
			nb := bits.Len64(x.key ^ last)
			h.buckets[nb] = append(h.buckets[nb], x)
			h.mask |= 1 << nb
		}
	}
	// Every key in bucket 0 equals last: pop the smallest id.
	b0 := h.buckets[0]
	at := 0
	for i := 1; i < len(b0); i++ {
		if b0[i].id < b0[at].id {
			at = i
		}
	}
	id = b0[at].id
	b0[at] = b0[len(b0)-1]
	h.buckets[0] = b0[:len(b0)-1]
	if len(b0) == 1 {
		h.mask &^= 1
	}
	return id, true
}

// Cover tracks per-node activation probabilities for a growing seed set
// under the MIA independence approximation: a node reached by several
// seeds' arborescences with probabilities p₁..pⱼ is activated with
// probability 1−Π(1−pᵢ). It is dense — one float64 per graph node plus
// the list of nodes touched since the last Reset — so Gain and Add are
// array walks and a reused Cover allocates nothing.
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
func (c *Cover) Gain(nodes []TreeNode) float64 {
	g := 0.0
	for _, n := range nodes {
		g += n.Prob * (1 - c.probs[n.ID])
	}
	return g
}

// Add merges the tree with the given nodes into the cover.
func (c *Cover) Add(nodes []TreeNode) {
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
	if t.Nodes[0].ID != t.Root || t.Nodes[0].Parent != -1 || t.Nodes[0].Prob != 1 {
		return fmt.Errorf("mia: malformed root node %+v", t.Nodes[0])
	}
	for i := 1; i < len(t.Nodes); i++ {
		n := t.Nodes[i]
		if n.Parent < 0 || int(n.Parent) >= i {
			return fmt.Errorf("mia: node %d has forward/invalid parent %d", i, n.Parent)
		}
		if n.Prob <= 0 || n.Prob > t.Nodes[n.Parent].Prob+1e-12 {
			return fmt.Errorf("mia: node %d prob %v exceeds parent prob %v",
				i, n.Prob, t.Nodes[n.Parent].Prob)
		}
		if n.Prob < t.Theta {
			return fmt.Errorf("mia: node %d prob %v below theta %v", i, n.Prob, t.Theta)
		}
		if n.Depth != t.Nodes[n.Parent].Depth+1 {
			return fmt.Errorf("mia: node %d depth %d inconsistent", i, n.Depth)
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
