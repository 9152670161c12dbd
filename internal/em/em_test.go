package em

import (
	"math"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// synthetic builds a ground-truth two-topic world and simulates episodes:
// topic 0 items carry keywords {alpha,beta} and propagate over "strong in
// topic 0" edges; topic 1 items carry {gamma,delta}.
func synthetic(t testing.TB, nNodes, nEpisodes int, seed uint64) (*graph.Graph, *tic.Model, *actionlog.Log) {
	if tt, ok := t.(*testing.T); ok {
		tt.Helper()
	}
	r := rng.New(seed)
	gb := graph.NewBuilder(nNodes)
	for i := 0; i < nNodes*4; i++ {
		gb.AddEdge(int32(r.Intn(nNodes)), int32(r.Intn(nNodes)))
	}
	g := gb.Build()
	mb := tic.NewBuilder(g, 2)
	for e := 0; e < g.NumEdges(); e++ {
		// Each edge strong in exactly one topic.
		if r.Bool() {
			_ = mb.SetProbs(graph.EdgeID(e), []float64{0.4 + 0.3*r.Float64(), 0.02})
		} else {
			_ = mb.SetProbs(graph.EdgeID(e), []float64{0.02, 0.4 + 0.3*r.Float64()})
		}
	}
	truth := mb.Build()

	sim := tic.NewSimulator(truth)
	var items []actionlog.Item
	var actions []actionlog.Action
	kws := [][]string{{"alpha", "beta"}, {"gamma", "delta"}}
	for i := 0; i < nEpisodes; i++ {
		z := i % 2
		gamma := topic.Pure(z, 2)
		seeds := []graph.NodeID{int32(r.Intn(nNodes))}
		items = append(items, actionlog.Item{ID: int32(i), Keywords: kws[z]})
		tick := int64(0)
		actions = append(actions, actionlog.Action{User: seeds[0], Item: int32(i), Time: tick})
		sim.Cascade(seeds, gamma, r, func(u, v graph.NodeID, e graph.EdgeID) {
			tick++
			actions = append(actions, actionlog.Action{User: v, Item: int32(i), Time: tick})
		})
	}
	return g, truth, actionlog.Build(nNodes, items, actions)
}

func TestLearnRecoversKeywordTopics(t *testing.T) {
	g, _, log := synthetic(t, 60, 400, 42)
	res, err := Learn(g, log, Config{Topics: 2, Iterations: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	km := res.Keywords
	// The two topics must separate {alpha,beta} from {gamma,delta} (up to
	// permutation).
	ga, _ := km.InferGamma([]string{"alpha", "beta"})
	gg, _ := km.InferGamma([]string{"gamma", "delta"})
	za, zg := ga.Top(1)[0], gg.Top(1)[0]
	if za == zg {
		t.Fatalf("keyword groups not separated: alpha→%d gamma→%d (γa=%v γg=%v)", za, zg, ga, gg)
	}
	if ga[za] < 0.9 || gg[zg] < 0.9 {
		t.Fatalf("weak separation: γa=%v γg=%v", ga, gg)
	}
}

func TestLearnLikelihoodImproves(t *testing.T) {
	g, _, log := synthetic(t, 40, 150, 1)
	res, err := Learn(g, log, Config{Topics: 2, Iterations: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ll := res.LogLikelihood
	if len(ll) != 10 {
		t.Fatalf("LL history len = %d", len(ll))
	}
	if ll[len(ll)-1] < ll[0] {
		t.Fatalf("likelihood decreased overall: first=%v last=%v", ll[0], ll[len(ll)-1])
	}
	// EM should be (near-)monotone; allow tiny dips from smoothing.
	for i := 1; i < len(ll); i++ {
		if ll[i] < ll[i-1]-math.Abs(ll[i-1])*0.01-1 {
			t.Fatalf("likelihood dropped at iter %d: %v -> %v", i, ll[i-1], ll[i])
		}
	}
}

func TestLearnRecoversEdgeTopicAlignment(t *testing.T) {
	g, truth, log := synthetic(t, 60, 600, 99)
	res, err := Learn(g, log, Config{Topics: 2, Iterations: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Determine topic permutation via keywords.
	ga, _ := res.Keywords.InferGamma([]string{"alpha"})
	learnedZ0 := ga.Top(1)[0] // learned topic corresponding to true topic 0

	// For edges with many observations, the learned dominant topic should
	// match the true dominant topic more often than not.
	match, checked := 0, 0
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		trueDom := 0
		if truth.TopicProb(eid, 1) > truth.TopicProb(eid, 0) {
			trueDom = 1
		}
		l0 := res.Propagation.TopicProb(eid, learnedZ0)
		l1 := res.Propagation.TopicProb(eid, 1-learnedZ0)
		if l0 == 0 && l1 == 0 {
			continue // never observed
		}
		if l0 < 0.05 && l1 < 0.05 {
			continue // too weak to call
		}
		learnedDom := 0
		if l1 > l0 {
			learnedDom = 1
		}
		checked++
		if learnedDom == trueDom {
			match++
		}
	}
	if checked < 20 {
		t.Fatalf("too few edges checked: %d", checked)
	}
	if acc := float64(match) / float64(checked); acc < 0.75 {
		t.Fatalf("edge topic alignment accuracy = %.2f (%d/%d), want >= 0.75", acc, match, checked)
	}
}

func TestLearnResponsibilitiesValid(t *testing.T) {
	g, _, log := synthetic(t, 30, 80, 5)
	res, err := Learn(g, log, Config{Topics: 3, Iterations: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responsibilities) == 0 {
		t.Fatal("no responsibilities")
	}
	for i, r := range res.Responsibilities {
		if err := r.Validate(); err != nil {
			t.Fatalf("trial %d responsibility invalid: %v", i, err)
		}
	}
}

func TestLearnErrors(t *testing.T) {
	g, _, log := synthetic(t, 10, 5, 2)
	if _, err := Learn(g, log, Config{Topics: 0}); err == nil {
		t.Fatal("Topics=0 accepted")
	}
	// Topic ids are uint16 in the exported model: one more topic used to
	// run every iteration and then panic in tic.NewBuilder.
	if _, err := Learn(g, log, Config{Topics: 1<<16 + 1, Iterations: 1}); err == nil {
		t.Fatal("Topics=65537 accepted")
	}
	// A negative Iterations used to return the random initialization
	// (Restarts 1) or panic indexing an empty likelihood history
	// (Restarts 2).
	for _, restarts := range []int{1, 2} {
		if _, err := Learn(g, log, Config{Topics: 2, Iterations: -1, Restarts: restarts}); err == nil {
			t.Fatalf("Iterations=-1 accepted with Restarts=%d", restarts)
		}
	}
	if _, err := Learn(g, log, Config{Topics: 2, Restarts: -1}); err == nil {
		t.Fatal("Restarts=-1 accepted")
	}
	bad := &actionlog.Log{NumUsers: 99}
	if _, err := Learn(g, bad, Config{Topics: 2}); err == nil {
		t.Fatal("user-count mismatch accepted")
	}
	empty := actionlog.Build(g.NumNodes(), nil, nil)
	if _, err := Learn(g, empty, Config{Topics: 2}); err == nil {
		t.Fatal("empty log accepted")
	}
	// Items present but keyword-free.
	noKw := actionlog.Build(g.NumNodes(),
		[]actionlog.Item{{ID: 0}},
		[]actionlog.Action{{User: 0, Item: 0, Time: 0}})
	if _, err := Learn(g, noKw, Config{Topics: 2}); err == nil {
		t.Fatal("keyword-free log accepted")
	}
}

func TestLearnedModelUsableForSimulation(t *testing.T) {
	g, _, log := synthetic(t, 40, 200, 8)
	res, err := Learn(g, log, Config{Topics: 2, Iterations: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gamma, _ := res.Keywords.InferGamma([]string{"alpha"})
	sim := tic.NewSimulator(res.Propagation)
	spread := sim.EstimateSpread([]graph.NodeID{0}, gamma, 200, rng.New(4))
	if spread < 1 {
		t.Fatalf("spread = %v, want >= 1", spread)
	}
}

func TestLearnDeterministic(t *testing.T) {
	g, _, log := synthetic(t, 30, 60, 10)
	a, err := Learn(g, log, Config{Topics: 2, Iterations: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Learn(g, log, Config{Topics: 2, Iterations: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.LogLikelihood {
		if a.LogLikelihood[i] != b.LogLikelihood[i] {
			t.Fatalf("nondeterministic LL at iter %d", i)
		}
	}
}

// TestLearnWorkerEquivalence is the parallel-EM contract: for a fixed
// seed the learned parameters, likelihood history and responsibilities
// are bit-identical for every worker count — trials are sharded into
// fixed chunks whose partials every row folds in chunk order. The world
// has 49 chunks: several rounds of the 2×workers window even at 16
// workers, and a multiple of no tested worker count, so the last round
// is always ragged.
func TestLearnWorkerEquivalence(t *testing.T) {
	g, _, log := synthetic(t, 80, 12400, 42)
	_, vocabID := collectVocab(log)
	trials, err := extractTrials(g, log, vocabID, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunks := (trials.count() + chunkTrials - 1) / chunkTrials
	if chunks != 49 {
		t.Fatalf("world has %d chunks, want 49", chunks)
	}
	base, err := Learn(g, log, Config{Topics: 3, Iterations: 6, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 5, 16} {
		res, err := Learn(g, log, Config{Topics: 3, Iterations: 6, Seed: 7, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.LogLikelihood {
			if base.LogLikelihood[i] != res.LogLikelihood[i] {
				t.Fatalf("workers=%d: LL[%d] = %v, serial %v", w, i, res.LogLikelihood[i], base.LogLikelihood[i])
			}
		}
		for i := range base.Responsibilities {
			for z := range base.Responsibilities[i] {
				if base.Responsibilities[i][z] != res.Responsibilities[i][z] {
					t.Fatalf("workers=%d: resp[%d][%d] differs", w, i, z)
				}
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			for z := 0; z < 3; z++ {
				if a, b := base.Propagation.TopicProb(graph.EdgeID(e), z),
					res.Propagation.TopicProb(graph.EdgeID(e), z); a != b {
					t.Fatalf("workers=%d: pp[e=%d z=%d] = %v, serial %v", w, e, z, b, a)
				}
			}
		}
	}
}

// TestConfigNegativeSentinels: the zero value of Smoothing / EdgePrior /
// MinProb means "default", so a negative value is the documented way to
// request exactly zero.
func TestConfigNegativeSentinels(t *testing.T) {
	c := Config{Topics: 2, Smoothing: -1, EdgePrior: -0.5, MinProb: -1e-9}
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if c.Smoothing != 0 || c.EdgePrior != 0 || c.MinProb != 0 {
		t.Fatalf("negative sentinels not honored: %+v", c)
	}
	d := Config{Topics: 2}
	if err := d.fill(); err != nil {
		t.Fatal(err)
	}
	if d.Smoothing != 0.01 || d.EdgePrior != 0.5 || d.MinProb != 1e-4 {
		t.Fatalf("defaults regressed: %+v", d)
	}
}

// The sentinels must survive the restart loop: Learn re-enters itself
// with an already-filled config, and a second fill() must not turn the
// sentinel-resolved zeros back into defaults.
func TestNegativeSentinelsSurviveRestarts(t *testing.T) {
	g, _, log := synthetic(t, 40, 120, 9)
	withSentinels, err := Learn(g, log, Config{
		Topics: 2, Iterations: 3, Seed: 3, Restarts: 2,
		Smoothing: -1, EdgePrior: -1, MinProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defaults, err := Learn(g, log, Config{Topics: 2, Iterations: 3, Seed: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range withSentinels.LogLikelihood {
		if withSentinels.LogLikelihood[i] != defaults.LogLikelihood[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("sentinels had no effect under Restarts > 1 (reverted to defaults)")
	}
}

// Disabling MinProb must keep edge probabilities the default would
// prune.
func TestMinProbDisabledKeepsTinyEdges(t *testing.T) {
	g, _, log := synthetic(t, 40, 120, 9)
	pruned, err := Learn(g, log, Config{Topics: 2, Iterations: 4, Seed: 3, MinProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := Learn(g, log, Config{Topics: 2, Iterations: 4, Seed: 3, MinProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	count := func(m *tic.Model) int {
		n := 0
		for e := 0; e < g.NumEdges(); e++ {
			m.EdgeTopics(graph.EdgeID(e), func(int, float64) { n++ })
		}
		return n
	}
	if count(kept.Propagation) <= count(pruned.Propagation) {
		t.Fatalf("MinProb -1 kept %d probs, aggressive pruning kept %d",
			count(kept.Propagation), count(pruned.Propagation))
	}
}

// TestLearnAllocs gates the set-up's allocations: trials are written
// into one flat table that the chunks then own, and the model into
// flat CSR arrays, so a learn costs a fixed budget of allocations —
// per worker, chunk and pass, never per trial, reference or edge. The
// corpus has 4 000 trials and 12 497 edges.
func TestLearnAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("learns a 2 000-author corpus twice")
	}
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 2000, Topics: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Learn(ds.Graph, ds.Log, Config{Topics: 8, Seed: 1, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Fatalf("Learn takes %.0f allocations, want at most 2000", allocs)
	}
}

func BenchmarkLearn(b *testing.B) {
	g, _, log := synthetic(b, 100, 300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(g, log, Config{Topics: 4, Iterations: 5, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearnCitation learns the citation corpus at a size where the
// E-step's per-reference terms dominate: 2 000 authors, Z = 8, default
// iterations.
func BenchmarkLearnCitation(b *testing.B) {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 2000, Topics: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Learn(ds.Graph, ds.Log, Config{Topics: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
