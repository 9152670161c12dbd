package stream

import (
	"fmt"
	"sort"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/store"
	"octopus/internal/tic"
)

// state is the deterministic core of live ingestion: the serving base
// system, the overlay of records applied on top of it, the item dedup
// tiers and the ingest counters. It has no goroutines, timers or locks
// and touches no disk — callers pass the current time in — so the same
// record sequence always yields the same folds, whether it arrives live
// or as a recovered WAL tail. LiveSystem serializes every call under
// its mu.
type state struct {
	base *core.System
	// maxNodes caps the node ids an edge may name (4× the first base's
	// nodes + 1024), so a malformed event cannot allocate an enormous
	// CSR at fold time.
	maxNodes int
	ov       *overlay
	// Item dedup is two-tiered so its memory stays bounded by the live
	// state instead of the process history: baseItems is the sorted item
	// ids of the base's action log, itemIDs holds only the overlay's
	// items and is emptied when retire moves them into the base.
	// baseItems is derived lazily (baseItemsOK) so wrapping a mapped
	// snapshot does not force its deferred action-log decode before the
	// first item arrives.
	baseItems   []int32
	baseItemsOK bool
	itemIDs     map[int32]struct{}
	since       time.Time // arrival of the overlay's oldest record

	applied, invalid, duplicates uint64
}

func newState(base *core.System) *state {
	return &state{
		base:     base,
		maxNodes: 4*base.Graph().NumNodes() + 1024,
		ov:       newOverlay(),
		itemIDs:  make(map[int32]struct{}),
	}
}

// apply validates and dedups one record against the base and the
// overlay, and adds it to the overlay when it is accepted. An edge that
// carries no prior (a live event) gets the weighted-Jaccard prior here,
// written into rec.Probs so the record reaches the WAL with it; a
// replayed edge keeps the prior it was logged with, so recovery
// reproduces the exact model.
func (s *state) apply(rec *store.Record, now time.Time) bool {
	empty := s.ov.events == 0
	var ok bool
	switch rec.Kind {
	case store.RecEdge:
		ok = s.applyEdge(rec)
	case store.RecItem:
		ok = s.applyItem(rec)
	case store.RecAction:
		ok = s.applyAction(rec)
	default:
		s.invalid++
	}
	if ok {
		s.applied++
		if empty {
			s.since = now
		}
	}
	return ok
}

// replay applies a recovered WAL tail exactly as it was applied live.
func (s *state) replay(tail []store.Record, now time.Time) {
	for i := range tail {
		s.apply(&tail[i], now)
	}
}

func (s *state) applyEdge(rec *store.Record) bool {
	if rec.Src < 0 || rec.Dst < 0 || rec.Src == rec.Dst ||
		int(rec.Src) >= s.maxNodes || int(rec.Dst) >= s.maxNodes {
		s.invalid++
		return false
	}
	g := s.base.Graph()
	if n := g.NumNodes(); int(rec.Src) < n && int(rec.Dst) < n {
		if _, ok := g.FindEdge(rec.Src, rec.Dst); ok {
			s.duplicates++
			return false
		}
	}
	if s.ov.hasEdge(rec.Src, rec.Dst) {
		s.duplicates++
		return false
	}
	if rec.Probs == nil {
		rec.Probs = weightedJaccardPrior(s.base, rec.Src, rec.Dst)
	}
	s.ov.addEdge(rec)
	return true
}

func (s *state) applyItem(rec *store.Record) bool {
	if rec.ItemID < 0 {
		s.invalid++
		return false
	}
	if s.hasItem(rec.ItemID) {
		s.duplicates++
		return false
	}
	s.itemIDs[rec.ItemID] = struct{}{}
	s.ov.addItem(actionlog.Item{ID: rec.ItemID, Keywords: rec.Keywords})
	return true
}

func (s *state) applyAction(rec *store.Record) bool {
	ceil := max(s.base.Graph().NumNodes(), s.ov.nodeCeil())
	if rec.User < 0 || int(rec.User) >= ceil || !s.hasItem(rec.Item) {
		s.invalid++
		return false
	}
	s.ov.addAction(actionlog.Action{User: rec.User, Item: rec.Item, Time: rec.Time})
	return true
}

// hasItem reports whether an item id is known to the base log or the
// overlay.
func (s *state) hasItem(id int32) bool {
	if _, ok := s.itemIDs[id]; ok {
		return true
	}
	if !s.baseItemsOK {
		s.baseItems = baseItemIDs(s.base.ActionLog())
		s.baseItemsOK = true
	}
	i := sort.Search(len(s.baseItems), func(i int) bool { return s.baseItems[i] >= id })
	return i < len(s.baseItems) && s.baseItems[i] == id
}

// staleness is the age at now of the overlay's oldest record, 0 when
// the overlay is empty.
func (s *state) staleness(now time.Time) time.Duration {
	if s.ov.events == 0 {
		return 0
	}
	return now.Sub(s.since)
}

// fold builds generation version of the system: the overlay merged
// into the base's graph, model and log, with the base's index tuning.
// A delta that leaves the graph unchanged reuses the graph, the model
// and both indexes (core.Fold) when cfg.IncrementalFold allows it;
// everything else runs core.Build at the perturbed seed. The second
// return reports whether the indexes were reused. fold only reads the
// state: a failure leaves the delta pending for the next try, and a
// success takes effect at retire.
func (s *state) fold(cfg *Config, version uint64) (*core.System, bool, error) {
	if h := cfg.foldHook; h != nil {
		if err := h(); err != nil {
			return nil, false, err
		}
	}
	ov, oldSys := s.ov, s.base
	oldG := oldSys.Graph()

	// An action/item-only delta leaves the graph — and therefore the
	// model and both indexes — untouched.
	newG := oldG
	if len(ov.edges) > 0 || len(ov.names) > 0 {
		b := graph.NewBuilder(oldG.NumNodes())
		b.AddGraph(oldG)
		for key := range ov.edges {
			b.AddEdge(key.u, key.v)
		}
		for u, nm := range ov.names {
			if int(u) >= oldG.NumNodes() || oldG.Name(u) == "" {
				b.SetName(u, nm)
			}
		}
		newG = b.Build()
	}

	// Merge the delta into the log instead of rebuilding it from every
	// action ever seen — identical output, cost proportional to the
	// overlay.
	newLog := actionlog.Merge(oldSys.ActionLog(), newG.NumNodes(), ov.items, ov.acts)

	bc := oldSys.BuildConfig()
	if cfg.Workers != 0 {
		bc.Workers = cfg.Workers
	}
	// Folds share the keyword model with serving snapshots, so its topic
	// names must never be re-touched from the fold goroutine.
	bc.TopicNames = nil

	if cfg.IncrementalFold && newG == oldG {
		// The seed is NOT perturbed: the indexes it drew are reused.
		sys, err := core.Fold(oldSys, newLog, bc)
		if err != nil {
			return nil, false, fmt.Errorf("stream: fold: %w", err)
		}
		return sys, true, nil
	}

	bc.Seed = foldSeed(bc.Seed, version)
	// Carry the learned model onto the grown graph, overlay priors
	// filling the new edges.
	model := oldSys.Propagation()
	if newG != oldG {
		var err error
		model, err = tic.Remap(model, newG, func(u, v graph.NodeID) []float64 {
			return ov.edges[edgeKey{u, v}]
		})
		if err != nil {
			return nil, false, fmt.Errorf("stream: fold model: %w", err)
		}
	}
	bc.GroundTruth = model
	bc.GroundTruthWords = oldSys.Keywords()
	sys, err := core.Build(newG, newLog, bc)
	if err != nil {
		return nil, false, fmt.Errorf("stream: fold rebuild: %w", err)
	}
	return sys, false, nil
}

// retire makes sys, the published fold of the current overlay, the new
// base: the folded items join the sorted base tier (an O(delta) merge,
// not a re-sort of the corpus; an underived tier stays lazy, since the
// new base's log holds them) and the overlay starts empty.
func (s *state) retire(sys *core.System) {
	if s.baseItemsOK {
		s.baseItems = mergeItemIDs(s.baseItems, s.ov.items)
	}
	s.base = sys
	s.ov = newOverlay()
	// A fresh map, not clear(): the overlay-item set shrinks across folds.
	s.itemIDs = make(map[int32]struct{})
}

// foldSeed is the build seed of a rebuilt generation: the base seed
// perturbed per generation, so successive rebuilds draw fresh poll
// trees.
func foldSeed(base, version uint64) uint64 { return base ^ version*0x9e3779b97f4a7c15 }

// baseItemIDs returns the sorted distinct item ids of a log — the
// compact dedup tier for items already folded into the base.
func baseItemIDs(log *actionlog.Log) []int32 {
	ids := make([]int32, 0, len(log.Episodes))
	for _, ep := range log.Episodes {
		ids = append(ids, ep.Item.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// mergeItemIDs merges the folded overlay's item ids into the sorted
// base tier — O(base + delta log delta). Overlay items are unique and
// disjoint from the base by the apply-time dedup.
func mergeItemIDs(base []int32, items []actionlog.Item) []int32 {
	if len(items) == 0 {
		return base
	}
	add := make([]int32, 0, len(items))
	for _, it := range items {
		add = append(add, it.ID)
	}
	sort.Slice(add, func(i, j int) bool { return add[i] < add[j] })
	out := make([]int32, 0, len(base)+len(add))
	i, j := 0, 0
	for i < len(base) && j < len(add) {
		if base[i] <= add[j] {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, add[j:]...)
	return out
}
