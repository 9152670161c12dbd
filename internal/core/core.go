// Package core assembles the OCTOPUS system (Figure 2 of the paper):
// social network data + action logs feed the topic-aware influence
// model, whose learned parameters power three online analysis services —
// keyword-based influence maximization, personalized influential keyword
// suggestion, and influential path exploration — behind a keyword-based
// interface with name auto-completion.
//
// A System is safe for concurrent queries: per-query scratch state
// (otim engines, MIA calculators) is kept on bounded free lists that
// survive garbage collection — at most GOMAXPROCS idle values of each
// kind, and no engine idles with an outsized slab (otim.SlabKeep) — so
// a warm query allocates kilobytes, not a fresh multi-megabyte engine.
package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/em"
	"octopus/internal/graph"
	"octopus/internal/heaps"
	"octopus/internal/mia"
	"octopus/internal/obs"
	"octopus/internal/otim"
	"octopus/internal/ris"
	"octopus/internal/rng"
	"octopus/internal/tags"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Config controls system construction.
type Config struct {
	// Topics is Z for model learning (required unless ground-truth
	// models are supplied).
	Topics int
	// EMIterations controls the learner (default 20, em's default).
	EMIterations int
	// EMRestarts runs several EM initializations and keeps the best
	// likelihood (default 1).
	EMRestarts int
	// GroundTruth, when non-nil, skips EM and adopts the given models
	// (used when the caller generated synthetic data with a known model,
	// or loads previously learned parameters).
	GroundTruth      *tic.Model
	GroundTruthWords *topic.Model
	// OTIM configures the keyword-IM index.
	OTIM otim.BuildOptions
	// Tags configures the influencer index.
	Tags tags.IndexOptions
	// TopicNames are optional display labels.
	TopicNames []string
	// Seed drives all randomized construction.
	Seed uint64
	// Workers bounds the fan-out of every offline build stage — EM
	// learning, the OTIM index and the influencer index (0 = one worker
	// per GOMAXPROCS slot, 1 = serial). For a fixed Seed the built
	// system is bit-identical for every worker count. Per-stage
	// overrides in OTIM.Workers / Tags.Workers win when non-zero. The
	// knob is a runtime tuning, not part of the model: snapshots do not
	// persist it.
	Workers int
}

// System is a fully built OCTOPUS instance.
type System struct {
	g     *graph.Graph
	log   *actionlog.Log
	prop  *tic.Model
	words *topic.Model

	otimIdx *otim.Index
	tagsIdx *tags.Index
	sugg    *tags.Suggester

	// counts are the action log's totals and actor set, known without
	// the log itself: a deferred system never decodes its log for Stats
	// or HoldsUser.
	counts LogCounts

	cfg     Config // the configuration this system was built with
	timings BuildTimings

	// engines and calcs are the per-query scratch free lists (see
	// ensureScratch).
	engines freeList[*otim.Engine]
	calcs   freeList[*mia.Calc]

	// logFn, when set, decodes the action log on demand instead of at
	// assembly — the mapped path (AssembleDeferred): queries never hold
	// the log, so a mapped process keeps the largest snapshot section in
	// its file. The keyword pools decode it once and drop it; only
	// ActionLog memoizes a decode.
	logFn   func() (*actionlog.Log, error)
	logOnce sync.Once

	// The stage-3 derived structures build lazily, each behind its own
	// once: scratch lists need only the indexes, and the keyword pools
	// the (possibly deferred) log. Eager construction paths force both
	// before returning. (Names are the graph's: see graph.Lookup.)
	scratchOnce sync.Once
	poolsOnce   sync.Once

	// backing, when non-nil, is the mapped snapshot the hot arrays alias
	// (arena.Mapping). The System holds an unowned pointer only — it is
	// the snapshot-swap manager (internal/stream) and store.Mapped that
	// retain/release references; see SetBacking.
	backing Backing

	// Learning diagnostics (nil when ground truth was adopted).
	LearnDiag []float64
}

// Backing is a refcounted resource the system's arrays alias — in
// practice an *arena.Mapping over an mmap'd snapshot file. Whoever
// publishes a System for concurrent use retains a reference for the
// publication's lifetime and releases it when the last reader is gone;
// the System itself never does.
type Backing interface {
	Retain()
	Release()
}

// Backing returns the mapped backing of the hot arrays, or nil for a
// fully heap-backed system.
func (s *System) Backing() Backing { return s.backing }

// SetBacking records (without retaining) the backing of the hot
// arrays. Fold paths propagate it from predecessor to successor
// conservatively: folds share the graph, models and indexes wholesale,
// so any descendant of a mapped system may still alias mapped bytes.
func (s *System) SetBacking(b Backing) { s.backing = b }

// Build constructs the system from a graph and an action log.
func Build(g *graph.Graph, log *actionlog.Log, cfg Config) (*System, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if log == nil {
		log = actionlog.Build(g.NumNodes(), nil, nil)
	}
	s := &System{g: g, log: log, counts: countLog(log, g.NumNodes()), cfg: cfg}
	buildStart := time.Now()

	// Stage 1: topic-aware influence modeling (Section II-B).
	stageStart := time.Now()
	if cfg.GroundTruth != nil && cfg.GroundTruthWords != nil {
		s.prop = cfg.GroundTruth
		s.words = cfg.GroundTruthWords
	} else {
		if cfg.Topics <= 0 {
			return nil, fmt.Errorf("core: Topics required when learning from logs")
		}
		res, err := em.Learn(g, log, em.Config{
			Topics:     cfg.Topics,
			Iterations: cfg.EMIterations,
			Restarts:   cfg.EMRestarts,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("core: model learning: %w", err)
		}
		s.prop = res.Propagation
		s.words = res.Keywords
		s.LearnDiag = res.LogLikelihood
	}
	if cfg.TopicNames != nil {
		if err := s.words.SetTopicNames(cfg.TopicNames); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	s.timings.Model = time.Since(stageStart)

	// Stage 2: online indexes.
	stageStart = time.Now()
	otimOpt := cfg.OTIM
	if otimOpt.Workers == 0 {
		otimOpt.Workers = cfg.Workers
	}
	oix, err := otim.BuildIndex(s.prop, otimOpt)
	if err != nil {
		return nil, fmt.Errorf("core: otim index: %w", err)
	}
	s.otimIdx = oix
	s.timings.OTIM = time.Since(stageStart)

	stageStart = time.Now()
	tagsOpt := cfg.Tags
	tagsOpt.Seed = cfg.Seed ^ 0x79b9
	if tagsOpt.Workers == 0 {
		tagsOpt.Workers = cfg.Workers
	}
	tix, err := tags.BuildIndex(s.prop, tagsOpt)
	if err != nil {
		return nil, fmt.Errorf("core: tags index: %w", err)
	}
	s.tagsIdx = tix
	s.timings.Tags = time.Since(stageStart)

	stageStart = time.Now()
	s.finish()
	s.timings.Derived = time.Since(stageStart)
	s.timings.Total = time.Since(buildStart)
	return s, nil
}

// Assemble builds a System from already-learned models AND already-built
// online indexes — the snapshot fast path: no EM, no index
// precomputation, only the cheap derived structures (user keyword
// pools, suggester) are reconstructed. The indexes
// must be bound to prop, and prop to g.
func Assemble(g *graph.Graph, log *actionlog.Log, prop *tic.Model, words *topic.Model,
	otimIdx *otim.Index, tagsIdx *tags.Index, cfg Config) (*System, error) {

	s, err := assemble(g, log, prop, words, otimIdx, tagsIdx, cfg)
	if err != nil {
		return nil, err
	}
	stageStart := time.Now()
	s.finish()
	s.timings.Derived = time.Since(stageStart)
	s.timings.Total = s.timings.Derived
	return s, nil
}

// LogCounts are an action log's episode and action totals and its
// actor set.
type LogCounts struct {
	Episodes, Actions int
	// Actors is a bitset over the log's users: bit u is set when user u
	// has at least one action.
	Actors []uint64
}

// NewLogCounts returns empty counts whose actor set covers users
// 0..n-1 (a system's node range).
func NewLogCounts(n int) LogCounts {
	return LogCounts{Actors: make([]uint64, (n+63)/64)}
}

// AddAction counts one action by user u; a user outside the bitset is
// counted but not recorded as an actor.
func (c *LogCounts) AddAction(u int32) {
	c.Actions++
	if u >= 0 && int(u/64) < len(c.Actors) {
		c.Actors[u/64] |= 1 << (u % 64)
	}
}

// Acted reports whether user u has at least one action.
func (c *LogCounts) Acted(u graph.NodeID) bool {
	return u >= 0 && int(u/64) < len(c.Actors) && c.Actors[u/64]&(1<<(u%64)) != 0
}

func countLog(log *actionlog.Log, n int) LogCounts {
	c := NewLogCounts(n)
	c.Episodes = len(log.Episodes)
	for _, ep := range log.Episodes {
		for _, a := range ep.Actions {
			c.AddAction(a.User)
		}
	}
	return c
}

// AssembleDeferred is Assemble for the mapped serve path: the action
// log decodes on demand via logFn (nil means an empty log), counts are
// its totals (Stats reports them without a decode), and the stage-3
// derived structures build lazily behind their onces, so cold-start
// cost is bounded by what the first query actually touches instead of
// the snapshot size. Every accessor forces what it needs; results are
// identical to an eager Assemble of the same parts.
func AssembleDeferred(g *graph.Graph, logFn func() (*actionlog.Log, error), counts LogCounts,
	prop *tic.Model, words *topic.Model,
	otimIdx *otim.Index, tagsIdx *tags.Index, cfg Config) (*System, error) {

	s, err := assemble(g, nil, prop, words, otimIdx, tagsIdx, cfg)
	if err != nil {
		return nil, err
	}
	if logFn != nil {
		s.log = nil
		s.logFn = logFn
		s.counts = counts
	}
	return s, nil
}

// assemble validates the pieces and builds the System shell; the caller
// runs finish to derive stage 3.
func assemble(g *graph.Graph, log *actionlog.Log, prop *tic.Model, words *topic.Model,
	otimIdx *otim.Index, tagsIdx *tags.Index, cfg Config) (*System, error) {

	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if prop == nil || words == nil || otimIdx == nil || tagsIdx == nil {
		return nil, fmt.Errorf("core: assemble needs models and indexes")
	}
	if prop.Graph() != g {
		return nil, fmt.Errorf("core: model not bound to the given graph")
	}
	if otimIdx.Model() != prop || tagsIdx.Model() != prop {
		return nil, fmt.Errorf("core: indexes not bound to the given model")
	}
	if prop.NumTopics() != words.NumTopics() {
		return nil, fmt.Errorf("core: tic model has %d topics, keyword model %d",
			prop.NumTopics(), words.NumTopics())
	}
	if log == nil {
		log = actionlog.Build(g.NumNodes(), nil, nil)
	}
	return &System{g: g, log: log, counts: countLog(log, g.NumNodes()), cfg: cfg, prop: prop, words: words,
		otimIdx: otimIdx, tagsIdx: tagsIdx}, nil
}

// finish builds stage 3 — the derived structures every construction
// path shares: user keyword pools, the suggestion engine and the
// per-query scratch lists. It runs on every snapshot fold and on every
// eager snapshot load. Systems assembled with AssembleDeferred reach
// the same state piecewise, on first use.
func (s *System) finish() {
	s.ensureScratch()
	s.ensureKeywordPools()
}

// ensureKeywordPools builds the suggestion engine, which owns the
// per-user keyword pools as one id table. This is the one derived stage
// that needs the action log. A deferred system decodes the log for it
// and drops the decode: only the id table stays.
func (s *System) ensureKeywordPools() {
	s.poolsOnce.Do(func() {
		log := s.log
		if s.logFn != nil {
			log = s.decodeLog()
		}
		words, off, ids := keywordTable(log)
		s.sugg = tags.NewTableSuggester(s.tagsIdx, s.words, words, off, ids)
	})
}

// ensureLog materializes and memoizes the action log.
func (s *System) ensureLog() *actionlog.Log {
	if s.logFn != nil {
		s.logOnce.Do(func() { s.log = s.decodeLog() })
	}
	return s.log
}

// decodeLog runs the deferred decode. It cannot return an error through
// every accessor that transitively needs the log, so a failure panics —
// store.Map guards against this by CRC-verifying the log section at map
// time, making a failure here a code bug rather than a corrupt file.
func (s *System) decodeLog() *actionlog.Log {
	lg, err := s.logFn()
	if err != nil {
		panic(fmt.Sprintf("core: deferred action-log decode failed: %v", err))
	}
	return lg
}

// keywordTable derives every user's keyword pool — the distinct
// keywords of the items the user acted on, sorted — as the suggester's
// id table (see tags.NewTableSuggester). Only episodes someone acted in
// are interned, so the table holds exactly the words some pool uses;
// ids are then replaced by lexicographic ranks, so a pool's sorted ids
// are its sorted words.
func keywordTable(log *actionlog.Log) (words []string, off, ids []int32) {
	uoff, ueps := log.UserItems()
	acted := make([]bool, len(log.Episodes))
	total := 0
	for _, e := range ueps {
		if !acted[e] {
			acted[e] = true
			total += len(log.Episodes[e].Item.Keywords)
		}
	}
	// Episode e's keyword ids are epKw[epOff[e]:epOff[e+1]]: first-seen
	// ids, then ranks.
	epOff := make([]int32, len(log.Episodes)+1)
	epKw := make([]int32, 0, total)
	intern := make(map[string]int32)
	for e, ep := range log.Episodes {
		if acted[e] {
			for _, w := range ep.Item.Keywords {
				k, ok := intern[w]
				if !ok {
					k = int32(len(words))
					intern[w] = k
					words = append(words, w)
				}
				epKw = append(epKw, k)
			}
		}
		epOff[e+1] = int32(len(epKw))
	}
	slices.Sort(words)
	rank := make([]int32, len(words))
	for r, w := range words {
		rank[intern[w]] = int32(r)
	}
	for i, k := range epKw {
		epKw[i] = rank[k]
	}

	off = make([]int32, len(uoff))
	stamp := make([]int32, len(words)) // stamp[k] == u+1: u's pool has k
	for u := 0; u+1 < len(uoff); u++ {
		start := len(ids)
		for _, e := range ueps[uoff[u]:uoff[u+1]] {
			for _, k := range epKw[epOff[e]:epOff[e+1]] {
				if stamp[k] != int32(u+1) {
					stamp[k] = int32(u + 1)
					ids = append(ids, k)
				}
			}
		}
		slices.Sort(ids[start:])
		off[u+1] = int32(len(ids))
	}
	return words, off, slices.Clone(ids) // at its exact size: the suggester keeps it
}

// Acquire makes a built System a serving source of its own (the shape
// a live system's and a read replica's Acquire share): it has exactly
// one generation, 1, and its arrays live as long as it does, so there
// is nothing to pin and the release is a no-op.
func (s *System) Acquire() (*System, uint64, func()) { return s, 1, noRelease }

func noRelease() {}

// Graph returns the social graph.
func (s *System) Graph() *graph.Graph { return s.g }

// ActionLog returns the action log the system was built from. A
// deferred (mapped) system decodes it on the first call and keeps it:
// only callers that need the whole log (save, split, stream folds) ask.
func (s *System) ActionLog() *actionlog.Log { return s.ensureLog() }

// BuildConfig returns the Config the system was built with — the basis
// for rebuilding an extended system with the same index tuning (the
// streaming snapshot manager overrides the model fields before reuse).
func (s *System) BuildConfig() Config { return s.cfg }

// Propagation returns the (learned or adopted) TIC model.
func (s *System) Propagation() *tic.Model { return s.prop }

// Keywords returns the keyword/topic model.
func (s *System) Keywords() *topic.Model { return s.words }

// InferGamma maps free-text keywords to the topic distribution γ that
// drives every topic-aware service, plus the words outside the model's
// vocabulary. It is cheap (a vocabulary lookup and a normalization) and
// deterministic, which lets the serving layer key its result cache by
// the inferred distribution without running an engine.
func (s *System) InferGamma(keywords []string) (topic.Dist, []string) {
	return s.words.InferGamma(keywords)
}

// OTIMIndex exposes the keyword-IM index (for experiments).
func (s *System) OTIMIndex() *otim.Index { return s.otimIdx }

// TagsIndex exposes the influencer index (for experiments).
func (s *System) TagsIndex() *tags.Index { return s.tagsIdx }

// UserKeywords returns a fresh copy of a user's candidate keyword pool:
// the distinct keywords of the items the user acted on, sorted. It is
// nil for a user without actions or out of range.
func (s *System) UserKeywords(u graph.NodeID) []string {
	if int(u) < 0 || int(u) >= s.g.NumNodes() {
		return nil
	}
	s.ensureKeywordPools()
	return s.sugg.Pool(u)
}

// ResolveUser accepts a display name or a whole decimal node id and
// returns the node id.
func (s *System) ResolveUser(name string) (graph.NodeID, error) {
	if id, ok := s.g.Lookup(name); ok {
		return id, nil
	}
	if id, err := strconv.Atoi(name); err == nil && id >= 0 && id < s.g.NumNodes() {
		return graph.NodeID(id), nil
	}
	return 0, fmt.Errorf("core: unknown user %q", name)
}

// HoldsUser reports whether this system has data for user u: an
// out-edge or an action. Under a shard split only u's owner shard
// holds either. It reads the log's counted actor set, so a deferred
// system never decodes its log for it.
func (s *System) HoldsUser(u graph.NodeID) bool {
	if int(u) < 0 || int(u) >= s.g.NumNodes() {
		return false
	}
	return s.g.OutDegree(u) > 0 || s.counts.Acted(u)
}

// HeldUserKeys lists, in node order, every display name and canonical
// decimal id that ResolveUser maps to a user this system holds (see
// HoldsUser). One pass over the name table marks the names' owners and
// the ids that digit names shadow, so no key costs a lookup.
func (s *System) HeldUserKeys() []string {
	n := s.g.NumNodes()
	// owns[u]: Lookup resolves u's name to u. shadowed[u]: a node is
	// named u's canonical decimal id, so ResolveUser resolves that id by
	// name instead.
	owns, shadowed := make([]bool, n), make([]bool, n)
	for _, u := range s.g.WithPrefix("") {
		owns[u] = true
		if id, ok := canonicalID(s.g.Name(u), n); ok {
			shadowed[id] = true
		}
	}
	var keys []string
	for u := graph.NodeID(0); int(u) < n; u++ {
		if !s.HoldsUser(u) {
			continue
		}
		if owns[u] {
			keys = append(keys, s.g.Name(u))
		}
		if !shadowed[u] {
			keys = append(keys, strconv.Itoa(int(u)))
		}
	}
	return keys
}

// canonicalID reports the node id in [0, n) whose strconv.Itoa form is
// exactly name.
func canonicalID(name string, n int) (int, bool) {
	if name == "" || name[0] < '0' || name[0] > '9' || name[0] == '0' && name != "0" {
		return 0, false
	}
	id, err := strconv.Atoi(name)
	return id, err == nil && id < n
}

// Completion is one auto-completion: a display name, the node it
// resolves to and that node's out-degree.
type Completion struct {
	Key    string
	Value  int32
	Weight float64
}

// Complete returns up to k auto-completions for a user-name prefix
// (Scenario 2's completion box), ranked by out-degree descending, then
// name; nil when none match or k <= 0.
func (s *System) Complete(p string, k int) []Completion { return complete(s.g, p, k) }

func complete(g *graph.Graph, p string, k int) []Completion {
	ids := g.WithPrefix(p)
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	// ids are in name order, so ranking by out-degree descending, then
	// position, ranks by name on ties. The heap keeps the best k with the
	// worst on top: heaps.Max puts larger keys, then smaller ids, first,
	// and an entry is (−out-degree, −position).
	k = min(k, len(ids))
	h := heaps.NewMax(k)
	for i, u := range ids {
		w := float64(g.OutDegree(u))
		if h.Len() == k {
			if w <= -h.Peek().Key {
				continue
			}
			h.Pop()
		}
		h.Push(heaps.Item{ID: int32(-i), Key: -w})
	}
	out := make([]Completion, h.Len())
	for j := len(out) - 1; j >= 0; j-- {
		it := h.Pop()
		u := ids[-it.ID]
		out[j] = Completion{Key: g.Name(u), Value: u, Weight: -it.Key}
	}
	return out
}

// InfluencerResult is one discovered seed user.
type InfluencerResult struct {
	User   graph.NodeID
	Name   string
	Spread float64 // cumulative MIA spread after including this seed
	// TopTopic is the dominant topic of the user's immediate influence —
	// the "aspect" the seed covers (Scenario 1's diversity observation).
	TopTopic     int
	TopTopicName string
}

// DiscoverOptions tunes keyword-based influential user discovery.
type DiscoverOptions struct {
	K       int     // number of seeds (default 10)
	Theta   float64 // MIA threshold (default 0.01)
	Epsilon float64 // ε-approximate selection (default 0 = exact)
	Context context.Context
	// Cost, when non-nil, accumulates engine work counters for the query
	// (nil, the default, skips all accounting).
	Cost *obs.Cost
}

// DiscoverResult is the full answer to Scenario 1.
type DiscoverResult struct {
	Gamma        topic.Dist
	UnknownWords []string
	Seeds        []InfluencerResult
	Stats        otim.Stats
}

// DiscoverInfluencers implements keyword-based influence maximization
// (Section II-C): given keywords, find the seed set with maximum
// topic-aware influence spread.
func (s *System) DiscoverInfluencers(keywords []string, opt DiscoverOptions) (*DiscoverResult, error) {
	if opt.K == 0 {
		opt.K = 10
	}
	gamma, unknown := s.words.InferGamma(keywords)
	s.ensureScratch()
	eng := s.engines.get()
	defer func() {
		eng.Trim()
		s.engines.put(eng)
	}()
	res, err := eng.Query(gamma, otim.QueryOptions{
		K:       opt.K,
		Theta:   opt.Theta,
		Epsilon: opt.Epsilon,
		Context: opt.Context,
		Cost:    opt.Cost,
	})
	if err != nil {
		return nil, err
	}
	out := &DiscoverResult{Gamma: gamma, UnknownWords: unknown, Stats: res.Stats}
	for i, u := range res.Seeds {
		tt := s.dominantTopic(u)
		out.Seeds = append(out.Seeds, InfluencerResult{
			User:         u,
			Name:         s.g.Name(u),
			Spread:       res.Spreads[i],
			TopTopic:     tt,
			TopTopicName: s.words.TopicName(tt),
		})
	}
	return out, nil
}

// dominantTopic returns the topic carrying the most outgoing probability
// mass of u.
func (s *System) dominantTopic(u graph.NodeID) int {
	z := s.prop.NumTopics()
	mass := make([]float64, z)
	lo, hi := s.g.OutEdges(u)
	for e := lo; e < hi; e++ {
		s.prop.EdgeTopics(e, func(zi int, p float64) { mass[zi] += p })
	}
	best := 0
	for zi := 1; zi < z; zi++ {
		if mass[zi] > mass[best] {
			best = zi
		}
	}
	return best
}

// TargetedResult is the answer to a targeted influence query.
type TargetedResult struct {
	Gamma topic.Dist
	Seeds []InfluencerResult
	// AudienceSpread is the estimated number of *target* users activated
	// by the full seed set.
	AudienceSpread float64
}

// DiscoverTargetedInfluencers finds k seeds maximizing influence over a
// target audience rather than the whole network — the targeted-IM
// service of the advertising deployment (reference [7]: real-time
// targeted influence maximization for online advertisements). Spread is
// estimated with reverse-reachable sets rooted in the audience; the
// RR-sampling work is accounted into cost (nil disables it).
func (s *System) DiscoverTargetedInfluencers(keywords []string, audience []graph.NodeID,
	k, rrSamples int, seed uint64, cost *obs.Cost) (*TargetedResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive")
	}
	if len(audience) == 0 {
		return nil, fmt.Errorf("core: empty target audience")
	}
	for _, u := range audience {
		if int(u) < 0 || int(u) >= s.g.NumNodes() {
			return nil, fmt.Errorf("core: audience member %d out of range", u)
		}
	}
	if rrSamples <= 0 {
		rrSamples = 20000
	}
	gamma, _ := s.words.InferGamma(keywords)
	col := ris.GenerateTargeted(s.prop, gamma, audience, rrSamples, rng.New(seed), cost)
	seeds, spread := col.SelectSeeds(k)
	res := &TargetedResult{Gamma: gamma, AudienceSpread: spread}
	for _, u := range seeds {
		tt := s.dominantTopic(u)
		res.Seeds = append(res.Seeds, InfluencerResult{
			User:         u,
			Name:         s.g.Name(u),
			Spread:       col.EstimateSpread([]graph.NodeID{u}),
			TopTopic:     tt,
			TopTopicName: s.words.TopicName(tt),
		})
	}
	return res, nil
}

// SuggestKeywords implements personalized influential keyword suggestion
// (Section II-D) for a target user.
func (s *System) SuggestKeywords(user graph.NodeID, k int, opt tags.SuggestOptions) (*tags.Suggestion, error) {
	if int(user) < 0 || int(user) >= s.g.NumNodes() {
		return nil, fmt.Errorf("core: user %d out of range", user)
	}
	opt.K = k
	s.ensureKeywordPools()
	return s.sugg.Suggest(user, opt)
}

// RankUserKeywords lists a user's keywords by estimated influence,
// accounting the index work into cost (nil disables it).
func (s *System) RankUserKeywords(user graph.NodeID, limit int, cost *obs.Cost) ([]tags.KeywordScore, error) {
	if int(user) < 0 || int(user) >= s.g.NumNodes() {
		return nil, fmt.Errorf("core: user %d out of range", user)
	}
	s.ensureKeywordPools()
	return s.sugg.RankKeywords(user, limit, cost), nil
}

// Radar returns the per-topic profile of one keyword with display names
// (the radar diagram of Scenario 2).
type RadarData struct {
	Keyword string
	Topics  []string
	Values  topic.Dist
}

// Radar computes radar-diagram data for a keyword.
func (s *System) Radar(keyword string) (*RadarData, error) {
	dist, ok := s.words.Radar(keyword)
	if !ok {
		return nil, fmt.Errorf("core: keyword %q not in vocabulary", keyword)
	}
	names := make([]string, s.words.NumTopics())
	for z := range names {
		names[z] = s.words.TopicName(z)
	}
	return &RadarData{Keyword: keyword, Topics: names, Values: dist}, nil
}

// PathNode is one node of the path-exploration payload.
type PathNode struct {
	ID    graph.NodeID `json:"id"`
	Name  string       `json:"name"`
	Prob  float64      `json:"prob"`
	Size  float64      `json:"size"` // subtree influence mass (node radius)
	Depth int32        `json:"depth"`
}

// PathLink is one edge of the path-exploration payload.
type PathLink struct {
	Source graph.NodeID `json:"source"`
	Target graph.NodeID `json:"target"`
	Prob   float64      `json:"prob"`
}

// PathGraph is the d3-ready influential-path payload (Scenario 3).
type PathGraph struct {
	Root    graph.NodeID `json:"root"`
	Forward bool         `json:"forward"`
	Theta   float64      `json:"theta"`
	Spread  float64      `json:"spread"`
	Nodes   []PathNode   `json:"nodes"`
	Links   []PathLink   `json:"links"`
}

// PathOptions tunes path exploration.
type PathOptions struct {
	Keywords []string // topic context; nil = uniform across topics
	Theta    float64  // prune threshold (default 0.01)
	MaxNodes int      // cap payload size (default 200)
	Reverse  bool     // explore who influences the user instead
	// Cost, when non-nil, accumulates ball-walk work for the query (nil,
	// the default, skips all accounting).
	Cost *obs.Cost
}

// InfluencePaths implements influential path visualization and
// exploration (Section II-E) via the MIA arborescence of the user.
func (s *System) InfluencePaths(user graph.NodeID, opt PathOptions) (*PathGraph, error) {
	if int(user) < 0 || int(user) >= s.g.NumNodes() {
		return nil, fmt.Errorf("core: user %d out of range", user)
	}
	if opt.Theta == 0 {
		opt.Theta = 0.01
	}
	// Written so that NaN fails the range check too.
	if !(opt.Theta > 0 && opt.Theta < 1) {
		return nil, fmt.Errorf("core: path theta %v out of (0,1)", opt.Theta)
	}
	if opt.MaxNodes < 0 {
		return nil, fmt.Errorf("core: path MaxNodes %d is negative", opt.MaxNodes)
	}
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 200
	}
	var gamma topic.Dist
	if len(opt.Keywords) > 0 {
		gamma, _ = s.words.InferGamma(opt.Keywords)
	} else {
		gamma = topic.Uniform(s.prop.NumTopics())
	}
	prob := func(e graph.EdgeID) float64 { return s.prop.EdgeProb(e, gamma) }

	s.ensureScratch()
	calc := s.calcs.get()
	defer s.calcs.put(calc)
	if opt.Cost != nil {
		calc.SetCost(opt.Cost)
		defer calc.SetCost(nil) // Calc returns to the free list
	}
	var tree *mia.Tree
	if opt.Reverse {
		tree = calc.MIIA(prob, user, opt.Theta, opt.MaxNodes)
	} else {
		tree = calc.MIOA(prob, user, opt.Theta, opt.MaxNodes)
	}

	pg := &PathGraph{
		Root:    user,
		Forward: tree.Forward,
		Theta:   tree.Theta,
		Spread:  tree.Spread(),
	}
	weights := tree.SubtreeWeights()
	for i, n := range tree.Nodes {
		l := tree.Links[i]
		pg.Nodes = append(pg.Nodes, PathNode{
			ID:    n.ID,
			Name:  s.g.Name(n.ID),
			Prob:  n.Prob,
			Size:  weights[i],
			Depth: l.Depth,
		})
		if i > 0 {
			parent := tree.Nodes[l.Parent].ID
			src, dst := parent, n.ID
			if !tree.Forward {
				src, dst = n.ID, parent
			}
			pg.Links = append(pg.Links, PathLink{Source: src, Target: dst, Prob: n.Prob})
		}
	}
	return pg, nil
}

// HighlightPath returns the node chain from the exploration root to a
// clicked node (Scenario 3: "when the user clicks on any node, OCTOPUS
// will highlight the paths through the node").
func (s *System) HighlightPath(pg *PathGraph, clicked graph.NodeID) ([]graph.NodeID, error) {
	parent := map[graph.NodeID]graph.NodeID{}
	for _, l := range pg.Links {
		if pg.Forward {
			parent[l.Target] = l.Source
		} else {
			parent[l.Source] = l.Target
		}
	}
	if _, ok := parent[clicked]; !ok && clicked != pg.Root {
		return nil, fmt.Errorf("core: node %d not in the explored paths", clicked)
	}
	var rev []graph.NodeID
	cur := clicked
	for {
		rev = append(rev, cur)
		if cur == pg.Root {
			break
		}
		next, ok := parent[cur]
		if !ok {
			return nil, fmt.Errorf("core: broken path at node %d", cur)
		}
		cur = next
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, nil
}

// Stats summarizes the built system for the CLI and HTTP status page.
type Stats struct {
	Nodes, Edges    int
	Topics          int
	Vocabulary      int
	Episodes        int
	Actions         int
	InfluencerPolls int
	IndexEdges      int
}

// Stats reports system-level statistics. It never decodes a deferred
// (mapped) log: the counts were taken when the system was assembled.
func (s *System) Stats() Stats {
	return Stats{
		Nodes:           s.g.NumNodes(),
		Edges:           s.g.NumEdges(),
		Topics:          s.prop.NumTopics(),
		Vocabulary:      s.words.VocabSize(),
		Episodes:        s.counts.Episodes,
		Actions:         s.counts.Actions,
		InfluencerPolls: s.tagsIdx.NumPolls(),
		IndexEdges:      s.tagsIdx.EdgesMaterialized(),
	}
}
