// Package tags implements the personalized influential keywords
// suggestion engine of Li et al. (SIGMOD 2017) — reference [6] of the
// OCTOPUS paper and the algorithm behind Scenario 2 ("discovering the
// selling points of a user").
//
// The problem: given a target user u, find the k-sized keyword set whose
// induced topic distribution γ maximizes u's influence spread. Finding
// the optimum is NP-hard (and NP-hard to approximate within any constant
// factor), so the engine estimates spreads by sampling and searches the
// keyword-set space greedily with pruning.
//
// The estimation substrate is the influencer index: M uniformly sampled
// "poll" users, each with a reverse propagation tree grown under the
// upper-envelope probabilities p̄ where every traversed edge materializes
// one uniform coin threshold λ_e. Because the effective probability
// p_e(γ) = Σ_z γ_z·ppᶻ_e is a deterministic function of γ, the SAME coin
// decides the edge's liveness under every γ: edge live ⟺ λ_e < p_e(γ).
// One offline sample therefore re-evaluates under any query distribution
// in O(stored edges) — "maintaining influencers of uniformly sampled
// users to avoid online sampling from scratch".
//
// Lazy propagation sampling: edges whose coin satisfies λ_e ≥ p̄_e can
// never be live under any γ and terminate traversal immediately, so the
// index materializes as few edges as possible (the eager alternative
// flips a coin for every edge of the graph per sample). Query evaluation
// delays materializing the liveness set: the reverse BFS from the poll
// root stops as soon as the target user is proven live.
//
// Each stored tree is flat and has one layout, the snapshot's: its node
// list in BFS order, a per-slot offset array and one pool of 16-byte
// coin records, slot i's in-edges being pool[off[i]:off[i+1]]. The
// build grows a tree straight into that layout, the writer writes it as
// it is, and a zero-copy load aliases it out of the mapped file.
package tags

import (
	"fmt"
	"slices"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/par"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// IndexOptions configures influencer-index construction.
type IndexOptions struct {
	// Polls is M, the number of uniformly sampled poll users
	// (default 1024). More polls tighten the spread estimator:
	// stderr ≈ n·√(q(1−q)/M) for hit rate q.
	Polls int
	// MaxDepth caps reverse tree depth (0 = unlimited).
	MaxDepth int
	// MaxTreeNodes caps reverse tree size (0 = unlimited).
	MaxTreeNodes int
	// Seed drives poll selection and coin thresholds.
	Seed uint64
	// Workers bounds the build fan-out (0 = one worker per GOMAXPROCS
	// slot, 1 = serial). For a fixed Seed the built index is identical
	// for every worker count: poll roots and per-poll coin streams are
	// pre-drawn serially from the seed RNG, trees grow concurrently,
	// and their contributions are merged in poll order.
	Workers int
}

func (o *IndexOptions) fill() {
	if o.Polls == 0 {
		o.Polls = 1024
	}
}

// revEdge is one materialized coin: forward graph edge From→To with
// threshold Lambda (indices are tree-local). It is the snapshot's
// 16-byte coin record, field for field.
type revEdge struct {
	From   int32 // tree-local index of the edge's source (farther node)
	To     int32 // tree-local index of the edge's destination (nearer root)
	Lambda float32
	Edge   graph.EdgeID
}

// revTree is the stored reverse propagation sample of one poll user.
// Slot 0 is the poll root; coins[off[i]:off[i+1]] are the stored edges
// whose To == i (edges that can make node From live once i is live,
// walking away from the root).
type revTree struct {
	nodes []graph.NodeID
	off   []int32
	coins []revEdge
}

// pollSlot places a user in one stored tree: the poll and the user's
// slot in that poll's tree.
type pollSlot struct {
	Poll, Slot int32
}

// Index is the influencer index. Immutable after Build; safe for
// concurrent readers.
type Index struct {
	m     *tic.Model
	trees []revTree
	// contains[containsOff[u]:containsOff[u+1]] lists, in poll order,
	// the polls whose stored tree contains u with u's slot there — only
	// these can contribute to u's spread estimate.
	containsOff []int32
	contains    []pollSlot
	edges       int // total materialized coins
	coins       int // total coins flipped during build (incl. pruned edges)
	// pollCoins[p] = coins flipped growing poll p's tree. The snapshot
	// stores this per-poll split; it only feeds the CoinsFlipped total.
	pollCoins []int32
}

// BuildIndex samples M poll users and grows their reverse trees under
// p̄. Each poll's root and coin stream derive from values drawn
// serially from the seed RNG, so polls are independent and the index is
// identical for every Workers setting.
func BuildIndex(m *tic.Model, opt IndexOptions) (*Index, error) {
	opt.fill()
	if opt.Polls <= 0 {
		return nil, fmt.Errorf("tags: Polls must be positive")
	}
	g := m.Graph()
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("tags: empty graph")
	}
	// Pre-draw poll roots and per-poll RNG seeds from the base stream in
	// poll order; tree growth then never touches the shared RNG.
	r := rng.New(opt.Seed)
	roots := make([]graph.NodeID, opt.Polls)
	seeds := make([]uint64, opt.Polls)
	for p := range roots {
		roots[p] = graph.NodeID(r.Intn(n))
		seeds[p] = r.Uint64()
	}

	ix := &Index{m: m, trees: make([]revTree, opt.Polls), pollCoins: make([]int32, opt.Polls)}
	growers := make([]grower, par.Resolve(opt.Workers))
	par.Each(opt.Workers, opt.Polls, func(w, p int) {
		gr := &growers[w]
		if gr.stamp == nil {
			gr.stamp, gr.slot = make([]int32, n), make([]int32, n)
		}
		ix.trees[p], ix.pollCoins[p] = gr.grow(m, roots[p], rng.New(seeds[p]), int32(p+1), opt)
	})
	// Sum and index contributions in poll order so each user's contains
	// list — and every derived estimate — is reproducible.
	for p := range ix.trees {
		ix.edges += len(ix.trees[p].coins)
		ix.coins += int(ix.pollCoins[p])
	}
	ix.indexContains(n)
	return ix, nil
}

// indexContains builds the per-user (poll, slot) table over the trees,
// in poll order.
func (ix *Index) indexContains(n int) {
	off := make([]int32, n+1)
	for p := range ix.trees {
		for _, v := range ix.trees[p].nodes {
			off[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	next := append([]int32(nil), off[:n]...)
	pairs := make([]pollSlot, off[n])
	for p := range ix.trees {
		for i, v := range ix.trees[p].nodes {
			pairs[next[v]] = pollSlot{Poll: int32(p), Slot: int32(i)}
			next[v]++
		}
	}
	ix.containsOff, ix.contains = off, pairs
}

// grower is one build worker's scratch, reused across the trees it
// grows: slot[v] is v's slot in the current tree when stamp[v] holds
// the tree's mark, and nodes/off/depth/coins are the growing tree's
// buffers, which each finished tree copies out at its exact size.
type grower struct {
	stamp, slot []int32
	nodes       []graph.NodeID
	off, depth  []int32
	coins       []revEdge
}

// grow grows one poll's reverse propagation tree under the
// upper-envelope probabilities, flipping coins from the poll's private
// RNG. mark must differ from every mark this grower used before. The
// BFS queue is the slot order itself, so slot i's in-edges are
// appended as one run and off[i+1] closes it. Returns the tree and the
// number of coins flipped.
func (gr *grower) grow(m *tic.Model, root graph.NodeID, r *rng.Source, mark int32, opt IndexOptions) (revTree, int32) {
	g := m.Graph()
	flipped := int32(0)
	nodes, off, depth, coins := append(gr.nodes[:0], root), append(gr.off[:0], 0), append(gr.depth[:0], 0), gr.coins[:0]
	gr.stamp[root], gr.slot[root] = mark, 0
	for i := int32(0); int(i) < len(nodes); i++ {
		// A slot past either cap is kept, with no edges of its own.
		if (opt.MaxTreeNodes <= 0 || len(nodes) < opt.MaxTreeNodes) && (opt.MaxDepth <= 0 || int(depth[i]) < opt.MaxDepth) {
			lo, hi := g.InSlots(nodes[i])
			for s := lo; s < hi; s++ {
				e := g.InEdgeID(s)
				lambda := r.Float64()
				flipped++
				if lambda >= m.MaxProb(e) {
					continue // dead under every γ: lazy pruning
				}
				u := g.InSrc(s)
				if gr.stamp[u] != mark {
					gr.stamp[u], gr.slot[u] = mark, int32(len(nodes))
					nodes = append(nodes, u)
					depth = append(depth, depth[i]+1)
				}
				coins = append(coins, revEdge{From: gr.slot[u], To: i, Lambda: float32(lambda), Edge: e})
			}
		}
		off = append(off, int32(len(coins)))
	}
	gr.nodes, gr.off, gr.depth, gr.coins = nodes, off, depth, coins
	// An empty pool is non-nil, as a decoded tree's is.
	return revTree{nodes: slices.Clone(nodes), off: slices.Clone(off), coins: append([]revEdge{}, coins...)}, flipped
}

// Model returns the underlying TIC model.
func (ix *Index) Model() *tic.Model { return ix.m }

// NumPolls returns M.
func (ix *Index) NumPolls() int { return len(ix.trees) }

// EdgesMaterialized returns the number of stored coins (edges kept after
// lazy pruning).
func (ix *Index) EdgesMaterialized() int { return ix.edges }

// CoinsFlipped returns the number of coins drawn during construction,
// including immediately pruned ones — compare against
// NumPolls()·NumEdges() for the eager alternative.
func (ix *Index) CoinsFlipped() int { return ix.coins }

// scan is the BFS scratch spread estimates reuse across the polls they
// scan: live marks by tree slot (cleared after every poll) and the
// queue. One Suggest or RankKeywords call threads a single scan through
// all of its estimates.
type scan struct {
	live  []bool
	queue []int32
}

// pollLive reports whether the user at ps.Slot is live in poll ps.Poll
// under γ: reachable from the poll root walking stored edges whose
// λ < p(γ). The BFS stops as soon as the target is proven live (delayed
// materialization). With a non-nil cost each call scans one poll, a
// call that walks the stored tree re-mixes one sample, and every
// λ-vs-p(γ) comparison tests one stored coin.
func (ix *Index) pollLive(ps pollSlot, gamma topic.Dist, cost *obs.Cost, sc *scan) bool {
	if cost != nil {
		cost.Tags.Polls++
	}
	if ps.Slot == 0 {
		return true // target is the poll root
	}
	if cost != nil {
		cost.Tags.Trees++
	}
	t := &ix.trees[ps.Poll]
	if len(sc.live) < len(t.nodes) {
		sc.live = make([]bool, len(t.nodes))
		sc.queue = make([]int32, 0, len(t.nodes))
	}
	live := sc.live
	live[0] = true
	queue := append(sc.queue[:0], 0)
	var coins uint64
	found := false
walk:
	for qi := 0; qi < len(queue); qi++ {
		q := queue[qi]
		for _, e := range t.coins[t.off[q]:t.off[q+1]] {
			if live[e.From] {
				continue
			}
			coins++
			if float64(e.Lambda) < ix.m.EdgeProb(e.Edge, gamma) {
				if e.From == ps.Slot {
					found = true
					break walk
				}
				live[e.From] = true
				queue = append(queue, e.From)
			}
		}
	}
	for _, v := range queue {
		live[v] = false
	}
	if cost != nil {
		cost.Tags.Coins += coins
	}
	return found
}

// SpreadEstimate returns σ̂_γ({u}) = n/M · #{polls where u is live},
// accumulating scan work into cost (nil disables accounting). A u
// outside the graph has no spread: 0.
func (ix *Index) SpreadEstimate(u graph.NodeID, gamma topic.Dist, cost *obs.Cost) float64 {
	return ix.spreadEstimate(u, gamma, cost, &scan{})
}

// spreadEstimate is SpreadEstimate over the caller's BFS scratch.
func (ix *Index) spreadEstimate(u graph.NodeID, gamma topic.Dist, cost *obs.Cost, sc *scan) float64 {
	if !ix.has(u) {
		return 0
	}
	hits := 0
	for _, ps := range ix.contains[ix.containsOff[u]:ix.containsOff[u+1]] {
		if ix.pollLive(ps, gamma, cost, sc) {
			hits++
		}
	}
	n := ix.m.Graph().NumNodes()
	return float64(n) * float64(hits) / float64(len(ix.trees))
}

// MaxSpreadEstimate returns the estimator's upper envelope for u: the
// spread if every stored edge were live (γ-independent), used for
// pruning entire users before any keyword evaluation. A u outside the
// graph has none: 0.
func (ix *Index) MaxSpreadEstimate(u graph.NodeID) float64 {
	if !ix.has(u) {
		return 0
	}
	n := ix.m.Graph().NumNodes()
	return float64(n) * float64(ix.containsOff[u+1]-ix.containsOff[u]) / float64(len(ix.trees))
}

// has reports whether u is a user of the index's graph.
func (ix *Index) has(u graph.NodeID) bool {
	return u >= 0 && int(u) < len(ix.containsOff)-1
}
