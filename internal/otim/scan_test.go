package otim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/heaps"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// topicWorld builds a random z-topic model over n users (plus pad
// edgeless users appended after them). Only the first n·(1−idle) users
// own out-edges — idle = 0.5 is the shape of a hash shard, which keeps
// the global id space but half the users' edges — and each edge is
// strong in one random topic and weak in the others.
func topicWorld(t testing.TB, n, pad, deg, z int, idle float64, seed uint64) *tic.Model {
	r := rng.New(seed)
	gb := graph.NewBuilder(n + pad)
	owners := max(1, int(float64(n)*(1-idle)))
	for i := 0; i < n*deg; i++ {
		gb.AddEdge(int32(r.Intn(owners)), int32(r.Intn(n)))
	}
	g := gb.Build()
	mb := tic.NewBuilder(g, z)
	probs := make([]float64, z)
	for e := 0; e < g.NumEdges(); e++ {
		strong := r.Intn(z)
		for zi := range probs {
			probs[zi] = 0.02 * r.Float64()
		}
		probs[strong] = 0.2 + 0.4*r.Float64()
		if err := mb.SetProbs(graph.EdgeID(e), probs); err != nil {
			t.Fatal(err)
		}
	}
	return mb.Build()
}

// scanGammas are the mixtures the differential tests query with:
// one-hot, uniform, with zero entries, skewed, and a random draw.
func scanGammas(z int, r *rng.Source) []topic.Dist {
	zero := make(topic.Dist, z)
	for zi := 0; zi < z; zi += 2 {
		zero[zi] = 1 / float64((z+1)/2)
	}
	skew := make(topic.Dist, z)
	for zi := range skew {
		skew[zi] = 0.1 / float64(z-1)
	}
	skew[z-1] = 0.9
	return []topic.Dist{topic.Pure(0, z), topic.Pure(z-1, z), topic.Uniform(z), zero, skew,
		topic.Dist(r.DirichletSym(0.3, z))}
}

// fullScanQuery is the tier-0 full scan the streamed scan replaced,
// kept as the oracle: UB_P for all n users pushed up front, Pruned
// counted by an O(n) sweep of the refinement stamps. The rest of the
// loop is bestEffort's.
func fullScanQuery(e *Engine, gamma topic.Dist, opt QueryOptions) (*Result, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	e.begin(gamma)
	n := len(e.scoredGen)
	res := &Result{}
	var h heaps.Max
	for u := 0; u < n; u++ {
		h.Push(heaps.Item{ID: int32(u), Key: 1 + e.bGamma(u), Round: pack(0, tierCheap)})
	}
	res.Stats.CheapBounds = n
	cover := e.cover
	cover.Reset()
	chosen := make([]bool, n)
	round := 0
	bestFreshID, bestFreshGain := int32(-1), -1.0
	selectSeed := func(id int32) {
		chosen[id] = true
		cover.Add(e.tree(id, &opt))
		res.Seeds = append(res.Seeds, id)
		res.Spreads = append(res.Spreads, cover.Spread())
		round++
		bestFreshID, bestFreshGain = -1, -1
	}
	exact := func(id int32) {
		gain := cover.Gain(e.tree(id, &opt))
		res.Stats.ExactEvals++
		if gain > bestFreshGain {
			bestFreshID, bestFreshGain = id, gain
		}
		h.Push(heaps.Item{ID: id, Key: gain, Round: pack(round, tierExact)})
	}
	for len(res.Seeds) < opt.K && h.Len() > 0 {
		top := h.Pop()
		if chosen[top.ID] {
			continue
		}
		topRound, topTier := unpack(top.Round)
		if opt.Epsilon > 0 && bestFreshID >= 0 && bestFreshID != top.ID &&
			bestFreshGain >= (1-opt.Epsilon)*top.Key {
			h.Push(top)
			selectSeed(bestFreshID)
			continue
		}
		switch {
		case topTier == tierExact && topRound == round:
			selectSeed(top.ID)
		case topTier == tierExact:
			exact(top.ID)
		case topTier == tierCheap && !opt.SkipLocalBound:
			ub := min(e.localBound(top.ID), top.Key)
			res.Stats.LocalBounds++
			h.Push(heaps.Item{ID: top.ID, Key: ub, Round: pack(round, tierLocal)})
			e.refinedGen[top.ID] = e.curGen
		default:
			exact(top.ID)
			e.refinedGen[top.ID] = e.curGen
		}
	}
	refined := 0
	for u := 0; u < n; u++ {
		if e.refinedGen[u] == e.curGen {
			refined++
		}
	}
	res.Stats.Pruned = n - refined
	return res, nil
}

// sameAnswer reports how got differs from want in seeds, spread bits
// or the refinement counts ("" when it does not).
func sameAnswer(got, want *Result) string {
	if len(got.Seeds) != len(want.Seeds) {
		return fmt.Sprintf("%d seeds, want %d", len(got.Seeds), len(want.Seeds))
	}
	for i := range want.Seeds {
		if got.Seeds[i] != want.Seeds[i] ||
			math.Float64bits(got.Spreads[i]) != math.Float64bits(want.Spreads[i]) {
			return fmt.Sprintf("seed %d: (%d, %x), want (%d, %x)", i, got.Seeds[i],
				math.Float64bits(got.Spreads[i]), want.Seeds[i], math.Float64bits(want.Spreads[i]))
		}
	}
	g, w := got.Stats, want.Stats
	if g.LocalBounds != w.LocalBounds || g.ExactEvals != w.ExactEvals || g.Pruned != w.Pruned {
		return fmt.Sprintf("stats %+v, want %+v", g, w)
	}
	return ""
}

// TestStreamedScanMatchesFullScan is the streamed tier 0's contract:
// on every world, mixture and option it returns the seeds, the spread
// bits and the refinement counts of the full scan, scoring at most n
// users.
func TestStreamedScanMatchesFullScan(t *testing.T) {
	worlds := []struct {
		n, deg, z int
		idle      float64
		seed      uint64
	}{
		{40, 3, 3, 0, 1},
		{40, 4, 4, 0.5, 2},
		{150, 4, 8, 0, 3},
		{150, 5, 8, 0.5, 4},
		{300, 4, 2, 0.5, 5},
	}
	r := rng.New(11)
	checked, scored, total := 0, 0, 0
	for _, w := range worlds {
		ix := buildIdx(t, topicWorld(t, w.n, 0, w.deg, w.z, w.idle, w.seed))
		streamed, oracle := NewEngine(ix), NewEngine(ix)
		ks := []int{1, 2, 5, 10, w.n / 2, w.n, w.n + 5}
		var opts []QueryOptions
		for _, k := range ks {
			opts = append(opts,
				QueryOptions{K: k},
				QueryOptions{K: k, Epsilon: 0.1},
				QueryOptions{K: k, SkipLocalBound: true})
		}
		opts = append(opts,
			QueryOptions{K: 6, Theta: 0.001},
			QueryOptions{K: 6, Theta: 0.05},
			QueryOptions{K: 6, MaxTreeNodes: 20},
			QueryOptions{K: 8, Epsilon: 0.1, SkipLocalBound: true, MaxTreeNodes: 30, Theta: 0.02})
		for _, gamma := range scanGammas(w.z, r) {
			for _, opt := range opts {
				got, err := streamed.Query(gamma, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fullScanQuery(oracle, gamma, opt)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameAnswer(got, want); diff != "" {
					t.Fatalf("n=%d z=%d idle=%v γ=%v %+v: %s", w.n, w.z, w.idle, gamma, opt, diff)
				}
				if got.Stats.CheapBounds > w.n {
					t.Fatalf("n=%d γ=%v %+v: scored %d users", w.n, gamma, opt, got.Stats.CheapBounds)
				}
				checked++
				if opt.K <= 10 {
					scored += got.Stats.CheapBounds
					total += w.n
				}
			}
		}
	}
	t.Logf("%d queries identical; k ≤ 10 scored %d of %d user bounds", checked, scored, total)
}

// TestQueryWorkIndependentOfIsolatedUsers pads a world with 10·n
// edgeless users: the answer and the number of users scored must not
// move (only Pruned grows, by the padding), since a user with no
// out-edges cannot reach the threshold of a query whose gains exceed 1.
func TestQueryWorkIndependentOfIsolatedUsers(t *testing.T) {
	const n, z = 200, 4
	base := NewEngine(buildIdx(t, topicWorld(t, n, 0, 4, z, 0.5, 12)))
	padded := NewEngine(buildIdx(t, topicWorld(t, n, 10*n, 4, z, 0.5, 12)))
	for _, gamma := range scanGammas(z, rng.New(3)) {
		for _, k := range []int{1, 5, 10} {
			opt := QueryOptions{K: k}
			want, err := base.Query(gamma, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := padded.Query(gamma, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantStats := want.Stats
			wantStats.Pruned += 10 * n
			if diff := sameAnswer(got, &Result{Seeds: want.Seeds, Spreads: want.Spreads, Stats: wantStats}); diff != "" {
				t.Fatalf("γ=%v k=%d: padded world %s", gamma, k, diff)
			}
			if got.Stats.CheapBounds != want.Stats.CheapBounds {
				t.Fatalf("γ=%v k=%d: padded world scored %d users, want %d",
					gamma, k, got.Stats.CheapBounds, want.Stats.CheapBounds)
			}
		}
	}
}

// TestTopicListsBuiltOnceUnderConcurrentFirstQueries: many goroutines
// make the first queries on a fresh Index at once. They must all read
// one set of lists and answer as a serial engine does.
func TestTopicListsBuiltOnceUnderConcurrentFirstQueries(t *testing.T) {
	m := topicWorld(t, 150, 0, 4, 4, 0.5, 13)
	gammas := scanGammas(4, rng.New(5))
	opt := QueryOptions{K: 5}
	serial := NewEngine(buildIdx(t, m))
	want := make([]*Result, len(gammas))
	for i, gamma := range gammas {
		res, err := serial.Query(gamma, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	ix := buildIdx(t, m)
	workers := 4 * runtime.GOMAXPROCS(0)
	lists := make([]*int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := NewEngine(ix)
			i := w % len(gammas)
			got, err := eng.Query(gammas[i], opt)
			if err != nil {
				t.Error(err)
				return
			}
			if diff := sameAnswer(got, want[i]); diff != "" || got.Stats.CheapBounds != want[i].Stats.CheapBounds {
				t.Errorf("worker %d: %s (scored %d, serial %d)", w, diff,
					got.Stats.CheapBounds, want[i].Stats.CheapBounds)
			}
			lists[w] = &ix.topicLists()[0]
		}(w)
	}
	wg.Wait()
	for w := range lists {
		if lists[w] != lists[0] {
			t.Fatalf("worker %d read another build of the topic lists", w)
		}
	}
}

// The radix-sorted topic lists equal a comparison sort by A_z
// descending, ids ascending on ties: aggregates drawn from a few values
// (many ties, zeros) and from a wide range (every key byte varies).
func TestTopicListsSorted(t *testing.T) {
	const z = 3
	ix := buildIdx(t, topicWorld(t, 500, 0, 3, z, 0.5, 14))
	n := len(ix.sigmaMax)
	r := rng.New(6)
	for _, draw := range []func() float64{
		func() float64 { return float64(r.Intn(4)) / 2 },
		func() float64 { return math.Ldexp(r.Float64(), r.Intn(40)-20) },
	} {
		for i := range ix.aggr {
			ix.aggr[i] = draw()
		}
		ix.buildTopicLists()
		for zi := 0; zi < z; zi++ {
			want := make([]int32, n)
			for u := range want {
				want[u] = int32(u)
			}
			key := func(u int32) float64 { return ix.aggr[int(u)*z+zi] }
			slices.SortFunc(want, func(a, b int32) int {
				if c := cmp.Compare(key(b), key(a)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			if got := ix.byTopic[zi*n : (zi+1)*n]; !slices.Equal(got, want) {
				t.Fatalf("topic %d: list %v…, want %v…", zi, got[:8], want[:8])
			}
		}
	}
}

// BenchmarkQueryShardShaped times a 10-seed query on a world where half
// the users own no out-edges — the shape of a hash shard, whose id space
// stays global — and reports the users the tier-0 scan scores per
// query.
func BenchmarkQueryShardShaped(b *testing.B) {
	m := topicWorld(b, 10000, 0, 3, 8, 0.5, 15)
	ix, err := BuildIndex(m, BuildOptions{ThetaPre: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(ix)
	gammas := scanGammas(8, rng.New(9))
	opt := QueryOptions{K: 10, Theta: 0.01}
	if _, err := eng.Query(gammas[0], opt); err != nil {
		b.Fatal(err) // builds the topic lists
	}
	cheap := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(gammas[i%len(gammas)], opt)
		if err != nil {
			b.Fatal(err)
		}
		cheap += res.Stats.CheapBounds
	}
	b.ReportMetric(float64(cheap)/float64(b.N), "cheap/op")
}
