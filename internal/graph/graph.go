// Package graph implements the directed social-graph substrate of the
// OCTOPUS reproduction: a compressed-sparse-row (CSR) representation with
// both forward and reverse adjacency, stable edge identifiers, node names,
// a mutable builder, text serialization and basic statistics.
//
// Edge identifiers are indices into the forward CSR edge array; every
// per-edge model quantity elsewhere in the system (topic probabilities,
// learned parameters, sampled coin thresholds) is stored in slices aligned
// with these ids, so the graph is the single source of truth for edge
// ordering.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// NodeID identifies a node; ids are dense in [0, NumNodes).
type NodeID = int32

// EdgeID identifies a directed edge; ids are dense in [0, NumEdges) in
// forward CSR order (sorted by source, then destination).
type EdgeID = int32

// Graph is an immutable directed graph in CSR form. Construct with a
// Builder. All exported methods are safe for concurrent readers.
type Graph struct {
	n int32

	outOff []int32  // len n+1; out-edges of u are ids outOff[u]..outOff[u+1]
	outDst []NodeID // len m; destination of each edge id

	inOff  []int32  // len n+1; in-adjacency offsets
	inSrc  []NodeID // len m; source of each reverse slot
	inEdge []EdgeID // len m; forward edge id of each reverse slot

	names []string // optional display names, len n or nil

	// byName is the name table behind Lookup and WithPrefix: one entry
	// per distinct non-empty name, sorted by name, holding the highest
	// node id that carries it. Built on first use (see nameTable).
	byName     []NodeID
	byNameOnce sync.Once
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return int(g.n) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int { return int(g.outOff[u+1] - g.outOff[u]) }

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u NodeID) int { return int(g.inOff[u+1] - g.inOff[u]) }

// OutEdges returns the half-open edge-id range [lo,hi) of u's out-edges.
func (g *Graph) OutEdges(u NodeID) (lo, hi EdgeID) { return g.outOff[u], g.outOff[u+1] }

// Dst returns the destination of edge e.
func (g *Graph) Dst(e EdgeID) NodeID { return g.outDst[e] }

// OutNeighbors returns the destinations of u's out-edges as a shared
// slice; callers must not modify it.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outDst[g.outOff[u]:g.outOff[u+1]]
}

// InSlots returns the half-open range [lo,hi) of u's reverse-adjacency
// slots; use InSrc and InEdgeID to resolve each slot.
func (g *Graph) InSlots(u NodeID) (lo, hi int32) { return g.inOff[u], g.inOff[u+1] }

// InSrc returns the source node of reverse slot s.
func (g *Graph) InSrc(s int32) NodeID { return g.inSrc[s] }

// InEdgeID returns the forward edge id of reverse slot s.
func (g *Graph) InEdgeID(s int32) EdgeID { return g.inEdge[s] }

// FindEdge returns the edge id of (u,v) using binary search over u's
// sorted out-neighbors; ok is false if the edge does not exist.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	lo, hi := g.outOff[u], g.outOff[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outDst[mid] < v:
			lo = mid + 1
		case g.outDst[mid] > v:
			hi = mid
		default:
			return mid, true
		}
	}
	return -1, false
}

// Src returns the source of edge e by binary search over the offset
// array. O(log n); prefer iterating OutEdges when the source is known.
func (g *Graph) Src(e EdgeID) NodeID {
	// find u with outOff[u] <= e < outOff[u+1]
	u := sort.Search(int(g.n), func(i int) bool { return g.outOff[i+1] > e })
	return NodeID(u)
}

// EachEdge calls fn for every edge in forward CSR order (by source,
// then destination) with the edge id and its endpoints.
func (g *Graph) EachEdge(fn func(e EdgeID, u, v NodeID)) {
	for u := int32(0); u < g.n; u++ {
		for e := g.outOff[u]; e < g.outOff[u+1]; e++ {
			fn(e, u, g.outDst[e])
		}
	}
}

// Name returns the display name of u ("" if names are absent).
func (g *Graph) Name(u NodeID) string {
	if g.names == nil {
		return ""
	}
	return g.names[u]
}

// Names returns all display names (nil if absent); callers must not
// modify the returned slice.
func (g *Graph) Names() []string { return g.names }

// Lookup resolves a display name to a node id. When several nodes
// carry the name, the highest id wins.
func (g *Graph) Lookup(name string) (NodeID, bool) {
	t := g.nameTable()
	i, ok := slices.BinarySearchFunc(t, name, g.cmpName)
	if !ok {
		return 0, false
	}
	return t[i], true
}

// WithPrefix returns, in name order, the node ids Lookup resolves
// names starting with prefix to — one per distinct name. The slice is
// shared; callers must not modify it.
func (g *Graph) WithPrefix(prefix string) []NodeID {
	t := g.nameTable()
	lo, _ := slices.BinarySearchFunc(t, prefix, g.cmpName)
	hi := lo + sort.Search(len(t)-lo, func(i int) bool { return !strings.HasPrefix(g.names[t[lo+i]], prefix) })
	return t[lo:hi]
}

func (g *Graph) cmpName(u NodeID, name string) int { return strings.Compare(g.names[u], name) }

// nameTable builds the name table once, on first use, so a graph that
// never resolves a name (a mapped shard that only answers IM) never
// pays for it.
func (g *Graph) nameTable() []NodeID {
	g.byNameOnce.Do(func() { g.byName = sortNames(g.names) })
	return g.byName
}

// sortNames returns the ids of the non-empty names sorted by name,
// keeping only the highest id of each run of equal names. It allocates
// the one result slice.
func sortNames(names []string) []NodeID {
	ids := make([]NodeID, 0, len(names))
	for u, nm := range names {
		if nm != "" {
			ids = append(ids, NodeID(u))
		}
	}
	slices.SortFunc(ids, func(a, b NodeID) int {
		if c := strings.Compare(names[a], names[b]); c != 0 {
			return c
		}
		return int(b - a) // highest id first, so Compact keeps it
	})
	return slices.CompactFunc(ids, func(a, b NodeID) bool { return names[a] == names[b] })
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are merged; self-loops are dropped (an IC cascade cannot use
// them). The zero value is ready to use.
type Builder struct {
	n     int32
	edges []edge
	names []string
}

type edge struct{ u, v NodeID }

// NewBuilder returns a Builder expecting n nodes (ids 0..n-1). More nodes
// may be introduced implicitly by AddEdge.
func NewBuilder(n int) *Builder { return &Builder{n: int32(n)} }

// SetName assigns a display name to node u, growing the node count if
// needed.
func (b *Builder) SetName(u NodeID, name string) {
	b.grow(u)
	for int(u) >= len(b.names) {
		b.names = append(b.names, "")
	}
	b.names[u] = name
}

// AddEdge records the directed edge (u,v).
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	b.grow(u)
	b.grow(v)
	b.edges = append(b.edges, edge{u, v})
}

// AddGraph records every edge and display name of g, growing the node
// count to cover g's nodes. Used to extend an immutable graph: copy it
// into a fresh builder, add the new edges, and Build.
func (b *Builder) AddGraph(g *Graph) {
	if n := NodeID(g.NumNodes()); n > 0 {
		b.grow(n - 1)
	}
	g.EachEdge(func(_ EdgeID, u, v NodeID) { b.AddEdge(u, v) })
	for u, nm := range g.Names() {
		if nm != "" {
			b.SetName(NodeID(u), nm)
		}
	}
}

func (b *Builder) grow(u NodeID) {
	if u >= b.n {
		b.n = u + 1
	}
}

// Build finalizes the graph. The builder may be reused afterwards but
// shares no memory with the result.
func (b *Builder) Build() *Graph {
	n := b.n
	es := append([]edge(nil), b.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].u != es[j].u {
			return es[i].u < es[j].u
		}
		return es[i].v < es[j].v
	})
	// Dedup.
	out := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			out = append(out, e)
		}
	}
	es = out
	m := len(es)

	g := &Graph{
		n:      n,
		outOff: make([]int32, n+1),
		outDst: make([]NodeID, m),
		inOff:  make([]int32, n+1),
		inSrc:  make([]NodeID, m),
		inEdge: make([]EdgeID, m),
	}
	for i, e := range es {
		g.outDst[i] = e.v
		g.outOff[e.u+1]++
		g.inOff[e.v+1]++
	}
	for i := int32(0); i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
		g.inOff[i+1] += g.inOff[i]
	}
	cursor := make([]int32, n)
	copy(cursor, g.inOff[:n])
	for i, e := range es {
		slot := cursor[e.v]
		cursor[e.v]++
		g.inSrc[slot] = e.u
		g.inEdge[slot] = EdgeID(i)
	}
	if len(b.names) > 0 {
		g.names = make([]string, n)
		copy(g.names, b.names)
	}
	return g
}

// Stats summarizes the degree structure of a graph.
type Stats struct {
	Nodes, Edges           int
	MaxOutDeg, MaxInDeg    int
	AvgDeg                 float64
	Sources, Sinks         int // nodes with in-degree 0 / out-degree 0
	DegreeHistogramBuckets []int
}

// ComputeStats returns summary statistics; the degree histogram has
// log2-spaced buckets of out-degree: [0], [1], [2,3], [4,7], ...
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	hist := make([]int, 2, 8)
	for u := int32(0); u < g.n; u++ {
		od, id := g.OutDegree(u), g.InDegree(u)
		if od > s.MaxOutDeg {
			s.MaxOutDeg = od
		}
		if id > s.MaxInDeg {
			s.MaxInDeg = id
		}
		if id == 0 {
			s.Sources++
		}
		if od == 0 {
			s.Sinks++
		}
		b := 0
		if od > 0 {
			for d := od; d > 0; d >>= 1 {
				b++
			}
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	if g.n > 0 {
		s.AvgDeg = float64(g.NumEdges()) / float64(g.n)
	}
	s.DegreeHistogramBuckets = hist
	return s
}

// Validate checks internal CSR invariants, returning a descriptive error
// on corruption. It is used by tests and by the binary loaders.
func (g *Graph) Validate() error {
	if len(g.outOff) != int(g.n)+1 || len(g.inOff) != int(g.n)+1 {
		return fmt.Errorf("graph: offset array lengths (%d,%d) do not match n=%d",
			len(g.outOff), len(g.inOff), g.n)
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	m := int32(len(g.outDst))
	if g.outOff[g.n] != m || g.inOff[g.n] != m {
		return fmt.Errorf("graph: final offsets (%d,%d) do not match m=%d",
			g.outOff[g.n], g.inOff[g.n], m)
	}
	for u := int32(0); u < g.n; u++ {
		if g.outOff[u] > g.outOff[u+1] || g.inOff[u] > g.inOff[u+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", u)
		}
		for e := g.outOff[u]; e < g.outOff[u+1]; e++ {
			v := g.outDst[e]
			if v < 0 || v >= g.n {
				return fmt.Errorf("graph: edge %d destination %d out of range", e, v)
			}
			if e > g.outOff[u] && g.outDst[e-1] >= v {
				return fmt.Errorf("graph: out-neighbors of %d not strictly sorted", u)
			}
		}
	}
	seen := make([]bool, m)
	for v := int32(0); v < g.n; v++ {
		for s := g.inOff[v]; s < g.inOff[v+1]; s++ {
			e := g.inEdge[s]
			if e < 0 || e >= m {
				return fmt.Errorf("graph: reverse slot %d references edge %d out of range", s, e)
			}
			if seen[e] {
				return fmt.Errorf("graph: edge %d appears twice in reverse adjacency", e)
			}
			seen[e] = true
			if g.outDst[e] != v {
				return fmt.Errorf("graph: reverse slot %d edge %d does not point to %d", s, e, v)
			}
			if g.inSrc[s] < 0 || g.inSrc[s] >= g.n {
				return fmt.Errorf("graph: reverse slot %d source out of range", s)
			}
			if fe, ok := g.FindEdge(g.inSrc[s], v); !ok || fe != e {
				return fmt.Errorf("graph: reverse slot %d inconsistent with forward edge", s)
			}
		}
	}
	return nil
}
