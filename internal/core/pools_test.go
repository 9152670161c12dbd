package core

import (
	"slices"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/tags"
)

// buildUserKeywords is the reference pool builder: for each user, the
// distinct keywords of the items the user acted on, sorted, nil when
// there are none.
func buildUserKeywords(log *actionlog.Log, n int) [][]string {
	sets := make([]map[string]bool, n)
	for _, ep := range log.Episodes {
		for _, a := range ep.Actions {
			if int(a.User) >= n {
				continue
			}
			if sets[a.User] == nil {
				sets[a.User] = map[string]bool{}
			}
			for _, w := range ep.Item.Keywords {
				sets[a.User][w] = true
			}
		}
	}
	out := make([][]string, n)
	for u, set := range sets {
		for w := range set {
			out[u] = append(out[u], w)
		}
		slices.Sort(out[u])
	}
	return out
}

// requirePoolsMatchOracle checks every user's keyword pool, read back
// from the suggester's id table, against the [][]string builder run
// over the system's own log, and that out-of-range ids have no pool.
func requirePoolsMatchOracle(t *testing.T, s *System) {
	t.Helper()
	log := s.ActionLog()
	n := s.Graph().NumNodes()
	want := buildUserKeywords(log, n)
	nonEmpty := 0
	for u := 0; u < n; u++ {
		got := s.UserKeywords(graph.NodeID(u))
		if !slices.Equal(got, want[u]) {
			t.Fatalf("user %d pool %v, oracle %v", u, got, want[u])
		}
		if len(got) > 0 {
			nonEmpty++
			got[0] = "clobbered" // a fresh copy: the table must not change
			if again := s.UserKeywords(graph.NodeID(u)); again[0] != want[u][0] {
				t.Fatalf("user %d pool aliases the table: %v", u, again)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no user has a keyword pool")
	}
	for _, u := range []graph.NodeID{-1, graph.NodeID(n)} {
		if got := s.UserKeywords(u); got != nil {
			t.Fatalf("out-of-range user %d has pool %v", u, got)
		}
	}
}

func TestUserKeywordsMatchOracle(t *testing.T) {
	t.Run("citation", func(t *testing.T) {
		s, _ := testSystem(t)
		requirePoolsMatchOracle(t, s)
	})
	t.Run("social", func(t *testing.T) {
		ds, err := datagen.Social(datagen.SocialConfig{Users: 300, Topics: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(ds.Graph, ds.Log, Config{
			GroundTruth:      ds.Truth,
			GroundTruthWords: ds.TruthWords,
			Seed:             3,
		})
		if err != nil {
			t.Fatal(err)
		}
		requirePoolsMatchOracle(t, s)
	})
	t.Run("folded", func(t *testing.T) {
		// actionDelta's items carry "fresh", a keyword the base log lacks.
		base := foldWorld(t)
		folded, err := Fold(base, actionDelta(base, 4), base.BuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		requirePoolsMatchOracle(t, folded)
		carriers := func(s *System) (c int) {
			for u := 0; u < s.Graph().NumNodes(); u++ {
				if slices.Contains(s.UserKeywords(graph.NodeID(u)), "fresh") {
					c++
				}
			}
			return c
		}
		if before, after := carriers(base), carriers(folded); before != 0 || after == 0 {
			t.Fatalf("pools carrying the ingested keyword: %d before the fold, %d after", before, after)
		}
	})
}

// A Suggester's users beyond its pools — negative ids included — have
// no pool, and their candidates fall back to the vocabulary.
func TestPoolsOutOfRange(t *testing.T) {
	s, _ := testSystem(t)
	n := graph.NodeID(s.Graph().NumNodes())
	sugg := tags.NewSuggester(s.TagsIndex(), s.Keywords(), [][]string{{"mining"}})
	for _, u := range []graph.NodeID{-1, 1, n} {
		if got := sugg.Pool(u); got != nil {
			t.Fatalf("Pool(%d) = %v", u, got)
		}
		if got := sugg.Candidates(u); !slices.Equal(got, s.Keywords().Vocab()) {
			t.Fatalf("Candidates(%d) = %v, want the vocabulary", u, got)
		}
	}
	if got := sugg.Candidates(0); !slices.Equal(got, []string{"mining"}) {
		t.Fatalf("Candidates(0) = %v", got)
	}
}

// The pools go from the log to the suggester as one id table: the
// derivation's allocations do not grow with users or episodes (a slice
// per user pool and per user item list took 2 891 here).
func TestKeywordPoolsAllocs(t *testing.T) {
	s, _ := testSystem(t)
	log := s.ActionLog()
	allocs := testing.AllocsPerRun(5, func() {
		words, off, ids := keywordTable(log)
		_ = tags.NewTableSuggester(s.TagsIndex(), s.Keywords(), words, off, ids)
	})
	if allocs > 64 {
		t.Fatalf("keyword pools took %v allocations, want ≤ 64", allocs)
	}
}
