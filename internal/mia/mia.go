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
	"sort"

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

// Children returns a child-index adjacency list aligned with Nodes.
func (t *Tree) Children() [][]int32 {
	ch := make([][]int32, len(t.Nodes))
	for i := 1; i < len(t.Nodes); i++ {
		p := t.Nodes[i].Parent
		ch[p] = append(ch[p], int32(i))
	}
	return ch
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
// The Dijkstra frontier is a binary max-heap of (key, id) entries with
// lazy deletion: improving a node's tentative probability pushes a new
// entry rather than moving the old one, and a popped entry whose node
// is already finalized this build ("done") is skipped. Trees come out
// node for node identical to an indexed heap holding only each node's
// best entry, because (key desc, id asc) is a strict total order:
//
//   - a node's best entry outranks every stale entry of the same node
//     (relaxation demands strict improvement, so stale keys are strictly
//     smaller), hence it pops first and finalizes the node, and every
//     stale entry popped later is skipped without side effects;
//   - among the live entries — one per tentative node, the same set an
//     indexed heap holds — the maximum of a strict total order is
//     unique, so both heaps pop the same node at every step.
//
// The frontier holds up to one entry per improving relaxation instead
// of one per node, and its backing array is reused across builds.
type Calc struct {
	g        *graph.Graph
	frontier []frontierEntry
	best     []float64
	parent   []int32
	pedge    []graph.EdgeID
	// stamp[v] == epoch: v holds a tentative probability this build.
	// done[v] == epoch: v is finalized in the tree being built.
	stamp []uint32
	done  []uint32
	epoch uint32
	// popAt[v] = index of v in the tree being built, set when v is
	// popped. It is only ever read for a node's parent — which was
	// necessarily popped earlier in the same build — so stale entries
	// from previous builds are never observed and no epoch stamp is
	// needed. Reusing the slice removes the per-build map allocation
	// that dominated small-tree builds.
	popAt []int32
	// cost, when non-nil, accumulates ball-walk work (trees built, nodes
	// popped, edges examined) for the query that owns this Calc. Set per
	// query with SetCost and cleared afterwards — Calcs are pooled.
	cost *obs.Cost
}

// frontierEntry is one (key, id) entry of the lazy Dijkstra heap.
type frontierEntry struct {
	key float64
	id  graph.NodeID
}

// outranks orders the frontier: larger key first, equal keys broken by
// smaller id — the same strict total order heaps.Indexed pops in.
func (a frontierEntry) outranks(b frontierEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

// NewCalc returns a Calc for graph g.
func NewCalc(g *graph.Graph) *Calc {
	n := g.NumNodes()
	return &Calc{
		g:      g,
		best:   make([]float64, n),
		parent: make([]int32, n),
		pedge:  make([]graph.EdgeID, n),
		stamp:  make([]uint32, n),
		done:   make([]uint32, n),
		popAt:  make([]int32, n),
	}
}

// SetCost directs ball-walk accounting into c's counters (nil
// disables, the default). The cost pointer must be cleared before the
// Calc returns to a pool.
func (c *Calc) SetCost(cost *obs.Cost) { c.cost = cost }

// MIOA builds the maximum influence out-arborescence of root: all nodes
// reachable with max path probability ≥ theta, capped at maxNodes nodes
// (0 means unlimited).
func (c *Calc) MIOA(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int) *Tree {
	return c.build(prob, root, theta, maxNodes, true)
}

// MIIA builds the maximum influence in-arborescence (who influences
// root, Scenario 3's reverse exploration).
func (c *Calc) MIIA(prob EdgeProb, root graph.NodeID, theta float64, maxNodes int) *Tree {
	return c.build(prob, root, theta, maxNodes, false)
}

// AppendMIOA builds the same arborescence as MIOA but appends its nodes
// to dst instead of allocating a Tree: the tree is the returned slice
// from len(dst) on, with Parent indices relative to that start. A
// caller that builds many short-lived trees keeps one slab and recycles
// it, so building allocates nothing once the slab has grown.
func (c *Calc) AppendMIOA(dst []TreeNode, prob EdgeProb, root graph.NodeID, theta float64, maxNodes int) []TreeNode {
	return c.grow(dst, prob, root, defaultTheta(theta), maxNodes, true)
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
// tree's nodes to dst in pop order.
func (c *Calc) grow(dst []TreeNode, prob EdgeProb, root graph.NodeID, theta float64, maxNodes int, forward bool) []TreeNode {
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		clear(c.done)
		c.epoch = 1
	}
	base := len(dst)
	c.frontier = c.frontier[:0]
	c.best[root] = 1
	c.parent[root] = -1
	c.stamp[root] = c.epoch
	c.push(frontierEntry{1, root})

	var edges uint64
	for len(c.frontier) > 0 {
		top := c.pop()
		u, p := top.id, top.key
		if c.done[u] == c.epoch {
			continue // stale: u was finalized through a better entry
		}
		if p < theta {
			break
		}
		c.done[u] = c.epoch
		var parentIdx int32 = -1
		var edge graph.EdgeID
		var depth int32
		if u != root {
			parentIdx = c.popAt[c.parent[u]]
			edge = c.pedge[u]
			depth = dst[base+int(parentIdx)].Depth + 1
		}
		c.popAt[u] = int32(len(dst) - base)
		dst = append(dst, TreeNode{ID: u, Parent: parentIdx, Edge: edge, Prob: p, Depth: depth})
		if maxNodes > 0 && len(dst)-base >= maxNodes {
			break
		}
		if forward {
			lo, hi := c.g.OutEdges(u)
			edges += uint64(hi - lo)
			for e := lo; e < hi; e++ {
				c.relax(u, c.g.Dst(e), e, p*prob(e), theta)
			}
		} else {
			lo, hi := c.g.InSlots(u)
			edges += uint64(hi - lo)
			for s := lo; s < hi; s++ {
				c.relax(u, c.g.InSrc(s), c.g.InEdgeID(s), p*prob(c.g.InEdgeID(s)), theta)
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

func (c *Calc) relax(u, v graph.NodeID, e graph.EdgeID, p, theta float64) {
	if p < theta || c.done[v] == c.epoch {
		return
	}
	if c.stamp[v] == c.epoch && p <= c.best[v] {
		return
	}
	c.stamp[v] = c.epoch
	c.best[v] = p
	c.parent[v] = u
	c.pedge[v] = e
	c.push(frontierEntry{p, v})
}

// push inserts x into the frontier heap (sift-up with a moving hole).
func (c *Calc) push(x frontierEntry) {
	h := append(c.frontier, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.outranks(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	c.frontier = h
}

// pop removes and returns the frontier's top entry (sift-down with a
// moving hole). The frontier must be non-empty.
func (c *Calc) pop() frontierEntry {
	h := c.frontier
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].outranks(h[l]) {
				l = r
			}
			if !h[l].outranks(last) {
				break
			}
			h[i] = h[l]
			i = l
		}
		h[i] = last
	}
	c.frontier = h
	return top
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

// TopInfluenced returns the k non-root tree nodes with the largest
// activation probabilities, as (node, prob) pairs in decreasing order.
func (t *Tree) TopInfluenced(k int) []TreeNode {
	nodes := make([]TreeNode, 0, len(t.Nodes)-1)
	for _, n := range t.Nodes[1:] {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Prob > nodes[j].Prob })
	if k > len(nodes) {
		k = len(nodes)
	}
	return nodes[:k]
}
