package tags

import (
	"fmt"
	"sort"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/topic"
)

// SuggestOptions configures a keyword-suggestion query.
type SuggestOptions struct {
	// K is the keyword-set size to suggest (required).
	K int
	// Candidates restricts the candidate pool size: the MaxCandidates
	// keywords with the best singleton spread estimates survive to the
	// set-search phase (default 24).
	MaxCandidates int
	// MinCoherence prunes candidates whose topic profile has cosine
	// similarity below this threshold with the already-chosen keywords,
	// keeping suggestions topically consistent (default 0 = disabled).
	MinCoherence float64
	// Exhaustive searches all C(candidates, K) sets instead of greedy;
	// exponential — only sensible for tiny pools in tests/experiments.
	Exhaustive bool
	// Cost, when non-nil, accumulates the index work (polls scanned,
	// trees visited, coins drawn) done by every spread estimate the
	// search issues. Nil (the default) skips all accounting.
	Cost *obs.Cost
}

func (o *SuggestOptions) fill() error {
	if o.K <= 0 {
		return fmt.Errorf("tags: K must be positive")
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 24
	}
	return nil
}

// Suggestion is the result of a keyword-suggestion query.
type Suggestion struct {
	Keywords []string
	// Gamma is the topic distribution induced by the full keyword set.
	Gamma topic.Dist
	// Spread is the index estimate of the target's influence under Gamma.
	Spread float64
	// Singles reports each chosen keyword's singleton spread estimate in
	// pick order (the per-step trace shown in the OCTOPUS UI).
	Singles []KeywordScore
	// Stats summarizes search effort.
	Stats SuggestStats
}

// KeywordScore pairs a keyword with a spread estimate.
type KeywordScore struct {
	Keyword string
	Spread  float64
}

// SuggestStats reports search work for the E7/E8 experiments.
type SuggestStats struct {
	CandidatesConsidered int
	SetsEvaluated        int
	PrunedByCoherence    int
	PrunedByUpperBound   bool // whole query answered by the max-spread prune
}

// Suggester runs keyword-suggestion queries against an influencer index
// and a keyword model. Safe for concurrent use (all state is immutable).
type Suggester struct {
	ix *Index
	km *topic.Model
	// The per-user candidate pools (typically the keywords of the items
	// the user acted on) as NewTableSuggester's id table; off is nil
	// when no pools were given.
	off   []int32
	ids   []int32
	words []string
}

// NewTableSuggester builds a Suggester over per-user keyword pools
// given as one id table: user u's pool is words[id] for each id in
// ids[off[u]:off[u+1]]. words is sorted and distinct, so ids are
// lexicographic ranks; off runs non-decreasing from 0 to len(ids). A
// nil off makes every vocabulary keyword a candidate for every user.
// The Suggester keeps the three slices, which must not change
// afterwards.
func NewTableSuggester(ix *Index, km *topic.Model, words []string, off, ids []int32) *Suggester {
	return &Suggester{ix: ix, km: km, off: off, ids: ids, words: words}
}

// NewSuggester builds a Suggester; userKeywords may be nil, in which
// case every vocabulary keyword is a candidate for every user. The
// pools are compacted into NewTableSuggester's id table, in the order
// given; userKeywords is not retained.
func NewSuggester(ix *Index, km *topic.Model, userKeywords [][]string) *Suggester {
	if userKeywords == nil {
		return NewTableSuggester(ix, km, nil, nil, nil)
	}
	rank := make(map[string]int32)
	var words []string
	total := 0
	for _, pool := range userKeywords {
		total += len(pool)
		for _, w := range pool {
			if _, ok := rank[w]; !ok {
				rank[w] = 0
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	for i, w := range words {
		rank[w] = int32(i)
	}
	off := make([]int32, len(userKeywords)+1)
	ids := make([]int32, 0, total)
	for u, pool := range userKeywords {
		for _, w := range pool {
			ids = append(ids, rank[w])
		}
		off[u+1] = int32(len(ids))
	}
	return NewTableSuggester(ix, km, words, off, ids)
}

// Pool returns a fresh copy of u's own keyword pool: nil when u has
// none or is out of range.
func (s *Suggester) Pool(u graph.NodeID) []string {
	if int(u) < 0 || int(u) >= len(s.off)-1 || s.off[u] == s.off[u+1] {
		return nil
	}
	ids := s.ids[s.off[u]:s.off[u+1]]
	pool := make([]string, len(ids))
	for i, id := range ids {
		pool[i] = s.words[id]
	}
	return pool
}

// Candidates returns the candidate keyword pool for u: its own pool, or
// the whole vocabulary when it has none.
func (s *Suggester) Candidates(u graph.NodeID) []string {
	if pool := s.Pool(u); pool != nil {
		return pool
	}
	return s.km.Vocab()
}

// Suggest finds an influential k-keyword set for the target user, who
// must be a user of the index's graph.
func (s *Suggester) Suggest(target graph.NodeID, opt SuggestOptions) (*Suggestion, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if !s.ix.has(target) {
		return nil, fmt.Errorf("tags: user %d is not in the graph", target)
	}
	sug := &Suggestion{}

	// Whole-user prune: if the target is contained in no poll tree, no
	// keyword set can give it nonzero estimated spread.
	if s.ix.MaxSpreadEstimate(target) == 0 {
		sug.Stats.PrunedByUpperBound = true
		sug.Gamma = s.km.Prior().Clone()
		return sug, nil
	}

	pool := s.Candidates(target)
	if len(pool) == 0 {
		return nil, fmt.Errorf("tags: user %d has no candidate keywords", target)
	}

	// Phase 1: singleton estimates, keep the best MaxCandidates. Every
	// estimate of the call shares one BFS scratch.
	sc := &scan{}
	scored := make([]KeywordScore, 0, len(pool))
	for _, w := range pool {
		if _, ok := s.km.KeywordID(w); !ok {
			continue
		}
		gamma, _ := s.km.InferGamma([]string{w})
		sp := s.ix.spreadEstimate(target, gamma, opt.Cost, sc)
		scored = append(scored, KeywordScore{Keyword: w, Spread: sp})
		sug.Stats.SetsEvaluated++
	}
	if len(scored) == 0 {
		return nil, fmt.Errorf("tags: none of user %d's keywords are in the vocabulary", target)
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Spread != scored[j].Spread {
			return scored[i].Spread > scored[j].Spread
		}
		return scored[i].Keyword < scored[j].Keyword
	})
	if len(scored) > opt.MaxCandidates {
		scored = scored[:opt.MaxCandidates]
	}
	sug.Stats.CandidatesConsidered = len(scored)

	if opt.K > len(scored) {
		opt.K = len(scored)
	}

	if opt.Exhaustive {
		s.exhaustive(target, scored, opt, sug, sc)
	} else {
		s.greedy(target, scored, opt, sug, sc)
	}

	gamma, _ := s.km.InferGamma(sug.Keywords)
	sug.Gamma = gamma
	sug.Spread = s.ix.spreadEstimate(target, gamma, opt.Cost, sc)
	return sug, nil
}

func (s *Suggester) greedy(target graph.NodeID, cands []KeywordScore, opt SuggestOptions, sug *Suggestion, sc *scan) {
	chosen := map[string]bool{}
	var cur []string
	for len(cur) < opt.K {
		bestKw := ""
		bestSpread := -1.0
		for _, c := range cands {
			if chosen[c.Keyword] {
				continue
			}
			if opt.MinCoherence > 0 && len(cur) > 0 {
				if !s.coherent(c.Keyword, cur, opt.MinCoherence) {
					sug.Stats.PrunedByCoherence++
					continue
				}
			}
			gamma, _ := s.km.InferGamma(append(cur, c.Keyword))
			sp := s.ix.spreadEstimate(target, gamma, opt.Cost, sc)
			sug.Stats.SetsEvaluated++
			if sp > bestSpread {
				bestSpread, bestKw = sp, c.Keyword
			}
		}
		if bestKw == "" {
			break // everything pruned
		}
		chosen[bestKw] = true
		cur = append(cur, bestKw)
		sug.Singles = append(sug.Singles, KeywordScore{Keyword: bestKw, Spread: bestSpread})
	}
	sug.Keywords = cur
}

func (s *Suggester) exhaustive(target graph.NodeID, cands []KeywordScore, opt SuggestOptions, sug *Suggestion, sc *scan) {
	best := -1.0
	var bestSet []string
	set := make([]string, 0, opt.K)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == opt.K {
			gamma, _ := s.km.InferGamma(set)
			sp := s.ix.spreadEstimate(target, gamma, opt.Cost, sc)
			sug.Stats.SetsEvaluated++
			if sp > best {
				best = sp
				bestSet = append(bestSet[:0], set...)
			}
			return
		}
		for i := start; i < len(cands); i++ {
			set = append(set, cands[i].Keyword)
			rec(i + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	sug.Keywords = append([]string(nil), bestSet...)
	for _, w := range bestSet {
		gamma, _ := s.km.InferGamma([]string{w})
		sug.Singles = append(sug.Singles, KeywordScore{Keyword: w, Spread: s.ix.spreadEstimate(target, gamma, opt.Cost, sc)})
	}
}

func (s *Suggester) coherent(w string, cur []string, minC float64) bool {
	for _, c := range cur {
		if sim, ok := s.km.KeywordCoherence(w, c); ok && sim < minC {
			return false
		}
	}
	return true
}

// RankKeywords returns all candidate keywords of target ranked by
// singleton spread estimate — the list OCTOPUS shows before the user
// picks one for the radar view. Index work is accounted into cost (nil
// disables it). A target outside the graph has no ranking: nil.
func (s *Suggester) RankKeywords(target graph.NodeID, limit int, cost *obs.Cost) []KeywordScore {
	if !s.ix.has(target) {
		return nil
	}
	pool := s.Candidates(target)
	sc := &scan{}
	scored := make([]KeywordScore, 0, len(pool))
	for _, w := range pool {
		if _, ok := s.km.KeywordID(w); !ok {
			continue
		}
		gamma, _ := s.km.InferGamma([]string{w})
		scored = append(scored, KeywordScore{Keyword: w, Spread: s.ix.spreadEstimate(target, gamma, cost, sc)})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Spread != scored[j].Spread {
			return scored[i].Spread > scored[j].Spread
		}
		return scored[i].Keyword < scored[j].Keyword
	})
	if limit > 0 && len(scored) > limit {
		scored = scored[:limit]
	}
	return scored
}
