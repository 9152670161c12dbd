package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Cost accumulates the engine-level work performed by one query: how
// many upper-bound evaluations the OTIM heap burned versus full exact
// evaluations, how many nodes and edges the MIA ball walks touched,
// how many stored polls the influencer index scanned, and how many
// reverse-reachable samples were mixed. A nil *Cost is the disabled
// state — every producer guards its increments with a nil check, so
// queries that did not ask for accounting allocate nothing and pay only
// an untaken branch.
//
// Counters are plain uint64 fields incremented by exactly one
// goroutine (the engine runs a query serially), so no atomics are
// needed; a query that fans work out must give each worker its own
// Cost and Merge them deterministically.
//
// All counted stages are deterministic for a fixed seed: the counters
// are bit-identical across runs and across systems built with any
// Workers setting (the build is worker-count independent, and the
// query path is serial).
type Cost struct {
	OTIM OTIMCost `json:"otim"`
	MIA  MIACost  `json:"mia"`
	Tags TagsCost `json:"tags"`
	RIS  RISCost  `json:"ris"`
}

// OTIMCost is the best-effort keyword-IM engine's ledger: the three
// evaluation tiers of the lazy heap and its push/pop traffic.
type OTIMCost struct {
	CheapBounds uint64 `json:"cheapBounds"`
	LocalBounds uint64 `json:"localBounds"`
	ExactEvals  uint64 `json:"exactEvals"`
	HeapOps     uint64 `json:"heapOps"`

	// Deprecated: the topic-sample index it counted is gone, so it is
	// always zero; it stays only so existing readers compile.
	SamplesMixed uint64 `json:"-"`
}

// MIACost counts maximum-influence-arborescence work: ball walks
// (max-probability Dijkstras) and the nodes popped / edges relaxed
// inside them.
type MIACost struct {
	Trees uint64 `json:"trees"`
	Nodes uint64 `json:"nodes"`
	Edges uint64 `json:"edges"`
}

// TagsCost counts influencer-index work: stored polls scanned, poll
// trees walked (each walk re-mixes one stored sample under γ), and
// stored coins tested against λ thresholds.
type TagsCost struct {
	Polls uint64 `json:"polls"`
	Trees uint64 `json:"trees"`
	Coins uint64 `json:"coins"`
}

// RISCost counts reverse-reachable sampling work.
type RISCost struct {
	Samples uint64 `json:"samples"`
	Nodes   uint64 `json:"nodes"`
	Edges   uint64 `json:"edges"`
}

// Merge adds d's counters into c. Both nils are tolerated.
func (c *Cost) Merge(d *Cost) {
	if c == nil || d == nil {
		return
	}
	c.OTIM.CheapBounds += d.OTIM.CheapBounds
	c.OTIM.LocalBounds += d.OTIM.LocalBounds
	c.OTIM.ExactEvals += d.OTIM.ExactEvals
	c.OTIM.HeapOps += d.OTIM.HeapOps
	c.MIA.Trees += d.MIA.Trees
	c.MIA.Nodes += d.MIA.Nodes
	c.MIA.Edges += d.MIA.Edges
	c.Tags.Polls += d.Tags.Polls
	c.Tags.Trees += d.Tags.Trees
	c.Tags.Coins += d.Tags.Coins
	c.RIS.Samples += d.RIS.Samples
	c.RIS.Nodes += d.RIS.Nodes
	c.RIS.Edges += d.RIS.Edges
}

// IsZero reports whether no work was recorded.
func (c *Cost) IsZero() bool {
	return c == nil || *c == Cost{}
}

// NodesTouched is the total graph-node traffic of the query — the
// cost-distribution dimension exported per endpoint by the registry.
func (c *Cost) NodesTouched() uint64 {
	if c == nil {
		return 0
	}
	return c.MIA.Nodes + c.RIS.Nodes
}

// SamplesMixed is the total sample traffic of the query: poll-tree
// walks and RR sample draws.
func (c *Cost) SamplesMixed() uint64 {
	if c == nil {
		return 0
	}
	return c.Tags.Trees + c.RIS.Samples
}

// compactKeys names the counters of Cost.counters in X-Octopus-Cost
// order.
var compactKeys = [...]string{
	"otim.cheap", "otim.local", "otim.exact", "otim.heap",
	"mia.trees", "mia.nodes", "mia.edges",
	"tags.polls", "tags.trees", "tags.coins",
	"ris.samples", "ris.nodes", "ris.edges",
}

// counters points at c's counters in compactKeys order.
func (c *Cost) counters() [len(compactKeys)]*uint64 {
	return [...]*uint64{
		&c.OTIM.CheapBounds, &c.OTIM.LocalBounds, &c.OTIM.ExactEvals, &c.OTIM.HeapOps,
		&c.MIA.Trees, &c.MIA.Nodes, &c.MIA.Edges,
		&c.Tags.Polls, &c.Tags.Trees, &c.Tags.Coins,
		&c.RIS.Samples, &c.RIS.Nodes, &c.RIS.Edges,
	}
}

// Compact renders the non-zero counters as space-separated
// stage.field=value pairs in a fixed order — the X-Octopus-Cost
// response header. An all-zero cost renders as "none".
func (c *Cost) Compact() string {
	if c.IsZero() {
		return "none"
	}
	b := make([]byte, 0, 128)
	for i, v := range c.counters() {
		if *v == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, compactKeys[i]...)
		b = append(b, '=')
		b = strconv.AppendUint(b, *v, 10)
	}
	return string(b)
}

// ParseCompact is the inverse of Compact: it accepts exactly the
// strings Compact renders — "none", or non-zero counters in Compact's
// order, single-spaced, each value without a sign or leading zero — so
// ParseCompact(s) succeeding means s == Compact of the result.
func ParseCompact(s string) (*Cost, error) {
	c := &Cost{}
	if s == "none" {
		return c, nil
	}
	ptrs := c.counters()
	next := 0
	for _, field := range strings.Split(s, " ") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("obs: cost field %q is not key=value", field)
		}
		i := next
		for i < len(compactKeys) && compactKeys[i] != key {
			i++
		}
		if i == len(compactKeys) {
			return nil, fmt.Errorf("obs: cost key %q is unknown, repeated or out of order", key)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil || val[0] == '0' {
			return nil, fmt.Errorf("obs: cost key %q: bad value %q", key, val)
		}
		*ptrs[i] = v
		next = i + 1
	}
	return c, nil
}
