// Package em learns the parameters of the topic-aware IC model from
// action logs, following the expectation-maximization scheme of Barbieri
// et al. (ICDM 2012) that OCTOPUS cites in Section II-B: "Given a set of
// such items, we can jointly learn ppᶻᵤᵥ and p(w|z) using the
// Expectation-Maximization algorithm".
//
// The generative story: each item i draws a topic zᵢ ~ p(z), emits its
// keywords from p(w|zᵢ), and propagates through the graph under the IC
// model with edge probabilities ppᶻⁱ. The E-step computes per-item topic
// responsibilities from both the keywords and the observed propagation
// trace; the M-step refits p(z), p(w|z) and ppᶻᵤᵥ from
// responsibility-weighted counts, with the classic Saito-style credit
// split among a node's possible activators.
//
// Within one iteration the parameters are fixed, so every log term the
// E-step needs is shared across trials: log p(z), log p(w|z), and per
// (edge, topic) the failure and one-parent success terms. Learn
// computes each of them once per iteration into tables, and the E-step
// adds table entries in each trial's reference order — the same values
// in the same order as taking every log per reference, so every learned
// bit is the same. Only success groups with several parents still take
// a log per trial.
package em

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/graph"
	"octopus/internal/par"
	"octopus/internal/rng"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// Config controls the learner.
type Config struct {
	// Topics is Z, the number of latent topics. Required.
	Topics int
	// Iterations is the number of EM rounds (default 20).
	Iterations int
	// Seed drives the random initialization.
	Seed uint64
	// Restarts runs that many independent random initializations and
	// keeps the one with the best final log-likelihood — the standard
	// defense against EM local optima (default 1).
	Restarts int
	// MinProb prunes learned edge probabilities below this threshold when
	// exporting the tic.Model (default 1e-4). The zero value means
	// "default"; pass any negative value to disable pruning and keep
	// every learned probability.
	MinProb float64
	// Smoothing is the additive smoothing applied in the M-step to
	// keyword counts and the topic prior (default 0.01). The zero value
	// means "default"; pass any negative value to request exactly zero
	// smoothing (only sensible when every topic is guaranteed keyword
	// and prior mass — empty topics then degenerate).
	Smoothing float64
	// EdgePrior is the Beta-prior pseudo-failure count added to each
	// (edge, topic) trial mass in the M-step (default 0.5). It pulls
	// weakly observed combinations toward zero: without it, a topic with
	// near-zero responsibility on an edge would inherit the edge's
	// success RATE from other topics, hallucinating cross-topic
	// influence. The zero value means "default"; pass any negative
	// value to disable the prior (maximum-likelihood rates).
	EdgePrior float64
	// Workers bounds the E-step fan-out (0 = one worker per GOMAXPROCS
	// slot, 1 = serial). The learned model is bit-identical for every
	// worker count: trials are sharded into fixed-size chunks whose
	// accumulators are merged in chunk order.
	Workers int

	// filled marks a config whose defaults and sentinels have been
	// resolved. fill() must be idempotent — the restart loop re-enters
	// Learn with an already-filled copy, and resolving the negative
	// sentinels twice would turn an explicit zero back into the default.
	filled bool
}

func (c *Config) fill() error {
	if c.Topics <= 0 {
		return fmt.Errorf("em: Topics must be positive")
	}
	if c.Iterations < 0 {
		return fmt.Errorf("em: Iterations must not be negative, got %d", c.Iterations)
	}
	if c.Restarts < 0 {
		return fmt.Errorf("em: Restarts must not be negative, got %d", c.Restarts)
	}
	if c.filled {
		return nil
	}
	c.filled = true
	if c.Iterations == 0 {
		c.Iterations = 20
	}
	if c.Restarts == 0 {
		c.Restarts = 1
	}
	// For the three thresholds the zero value selects the default, so a
	// negative sentinel is the explicit way to request "exactly zero".
	switch {
	case c.MinProb == 0:
		c.MinProb = 1e-4
	case c.MinProb < 0:
		c.MinProb = 0
	}
	switch {
	case c.Smoothing == 0:
		c.Smoothing = 0.01
	case c.Smoothing < 0:
		c.Smoothing = 0
	}
	switch {
	case c.EdgePrior == 0:
		c.EdgePrior = 0.5
	case c.EdgePrior < 0:
		c.EdgePrior = 0
	}
	return nil
}

// Result carries the learned model pair plus diagnostics.
type Result struct {
	Propagation *tic.Model   // learned ppᶻᵤᵥ bound to the graph
	Keywords    *topic.Model // learned p(w|z) and p(z)
	// LogLikelihood per EM iteration (keyword + propagation terms).
	LogLikelihood []float64
	// Responsibilities[i] is the final topic posterior of episode i.
	Responsibilities []topic.Dist
	// Elapsed is the wall-clock learning time (across all restarts when
	// Restarts > 1) — a stage timer for the observability layer.
	Elapsed time.Duration
}

// trial data extracted once from the log.
type successGroup struct {
	parents []graph.EdgeID // edges (u,v) from previously-active in-neighbors
}

type episodeTrials struct {
	item      int // index into log.Episodes
	words     []int
	successes []successGroup
	failures  []graph.EdgeID
}

// chunkTrials is the fixed E-step shard size. It must not depend on the
// worker count: chunk boundaries define the floating-point merge order,
// which is what makes parallel learning bit-identical to serial.
const chunkTrials = 256

// emChunk is one fixed shard of trials plus the distinct edge/keyword
// rows its trials touch, remapped to chunk-local accumulator indices.
// The translation tables are parallel to the trials' own reference
// order (success-group parents flattened, then failures, then words),
// so the hot accumulation loop never does a map lookup.
type emChunk struct {
	lo, hi int
	edges  []graph.EdgeID // distinct edges touched, ascending
	words  []int32        // distinct keyword ids touched, ascending
	// Per trial (index ti-lo): chunk-local indices of the trial's
	// success-group parents (flattened across groups), failure edges
	// and words.
	parentsLocal [][]int32
	failsLocal   [][]int32
	wordsLocal   [][]int32
}

// makeChunks shards trials into fixed-size chunks and records each
// chunk's touched edge/keyword sets and local-index translations once
// (they are invariant across EM iterations). Accumulators are then
// sized to the chunk's content — O(chunk references), never O(Z·M) —
// which keeps parallel EM's memory footprint flat in the graph size.
func makeChunks(trials []episodeTrials, M, V int) []emChunk {
	var chunks []emChunk
	// localE/localW double as "seen" stamps: >= 0 means assigned for the
	// current chunk (they are reset to -1 per touched entry after use).
	localE := make([]int32, M)
	localW := make([]int32, V)
	for i := range localE {
		localE[i] = -1
	}
	for i := range localW {
		localW[i] = -1
	}
	for lo := 0; lo < len(trials); lo += chunkTrials {
		hi := lo + chunkTrials
		if hi > len(trials) {
			hi = len(trials)
		}
		ch := emChunk{lo: lo, hi: hi}
		// Pass 1: collect + sort distinct sets.
		for ti := lo; ti < hi; ti++ {
			tr := &trials[ti]
			for _, w := range tr.words {
				if localW[w] < 0 {
					localW[w] = 0
					ch.words = append(ch.words, int32(w))
				}
			}
			for _, sg := range tr.successes {
				for _, e := range sg.parents {
					if localE[e] < 0 {
						localE[e] = 0
						ch.edges = append(ch.edges, e)
					}
				}
			}
			for _, e := range tr.failures {
				if localE[e] < 0 {
					localE[e] = 0
					ch.edges = append(ch.edges, e)
				}
			}
		}
		sort.Slice(ch.edges, func(a, b int) bool { return ch.edges[a] < ch.edges[b] })
		sort.Slice(ch.words, func(a, b int) bool { return ch.words[a] < ch.words[b] })
		for li, e := range ch.edges {
			localE[e] = int32(li)
		}
		for li, wd := range ch.words {
			localW[wd] = int32(li)
		}
		// Pass 2: translate every trial reference to its local index.
		ch.parentsLocal = make([][]int32, hi-lo)
		ch.failsLocal = make([][]int32, hi-lo)
		ch.wordsLocal = make([][]int32, hi-lo)
		for ti := lo; ti < hi; ti++ {
			tr := &trials[ti]
			var pl []int32
			for _, sg := range tr.successes {
				for _, e := range sg.parents {
					pl = append(pl, localE[e])
				}
			}
			fl := make([]int32, len(tr.failures))
			for j, e := range tr.failures {
				fl[j] = localE[e]
			}
			wl := make([]int32, len(tr.words))
			for j, w := range tr.words {
				wl[j] = localW[w]
			}
			ch.parentsLocal[ti-lo], ch.failsLocal[ti-lo], ch.wordsLocal[ti-lo] = pl, fl, wl
		}
		// Reset stamps for the next chunk.
		for _, e := range ch.edges {
			localE[e] = -1
		}
		for _, wd := range ch.words {
			localW[wd] = -1
		}
		chunks = append(chunks, ch)
	}
	return chunks
}

// emAcc is a chunk-local accumulator sized to the owning chunk's
// touched rows: succ/trial are Z×len(chunk.edges), word is
// Z×len(chunk.words), indexed by the chunk's local ids. Pooled
// instances grow to the largest chunk they have served.
type emAcc struct {
	succ, trial []float64
	word        []float64
	prior       []float64 // Z
	ll          float64
}

// sized returns s resized to n, reusing capacity, with every element
// zeroed.
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *emAcc) reset(ch *emChunk, Z int) {
	a.succ = sized(a.succ, Z*len(ch.edges))
	a.trial = sized(a.trial, Z*len(ch.edges))
	a.word = sized(a.word, Z*len(ch.words))
	a.prior = sized(a.prior, Z)
	a.ll = 0
}

// logTables holds every log term the E-step shares between trials,
// recomputed once per EM iteration from the current parameters:
// prior[z] = log p(z), word[z·V+w] = log(p(w|z) + 1e-300) and, for the
// joint iterations, the per-(edge, topic) failure term
// fail[e·Z+z] = log(1 − pp + 1e-12) and one-parent success term
// succ1[e·Z+z] = log(1 − (1 − pp) + 1e-12). The edge tables are
// edge-major, so one reference reads all Z topics from one cache line.
//
// Each entry is the exact float64 a per-reference math.Log call would
// return (for one parent, 1.0·(1 − pp) == 1 − pp), so adding table rows
// in the trial's reference order reproduces every per-topic sum bit for
// bit.
type logTables struct {
	prior, word []float64
	fail, succ1 []float64
}

// logEdgeBlock is the par.Each unit of the edge-table fill.
const logEdgeBlock = 4096

func newLogTables(Z, V, M int) *logTables {
	return &logTables{
		prior: make([]float64, Z),
		word:  make([]float64, Z*V),
		fail:  make([]float64, M*Z),
		succ1: make([]float64, M*Z),
	}
}

// fill recomputes the tables from the current parameters; the edge
// tables only when useProp is set. Every entry is a pure function of
// its parameter, so the fan-out cannot change a bit.
func (t *logTables) fill(pp, pwz, prior []float64, useProp bool, Z, M, workers int) {
	for z, p := range prior {
		t.prior[z] = math.Log(p)
	}
	for i, p := range pwz {
		t.word[i] = math.Log(p + 1e-300)
	}
	if !useProp {
		return
	}
	par.Each(workers, (M+logEdgeBlock-1)/logEdgeBlock, func(_, b int) {
		for e := b * logEdgeBlock; e < min((b+1)*logEdgeBlock, M); e++ {
			fail, succ1 := t.fail[e*Z:(e+1)*Z], t.succ1[e*Z:(e+1)*Z]
			for z := range fail {
				p := pp[z*M+e]
				fail[z] = math.Log(1 - p + 1e-12)
				succ1[z] = math.Log(1 - (1 - p) + 1e-12)
			}
		}
	})
}

// eStepChunk runs the E-step plus M-step accumulation for one chunk of
// trials, writing responsibilities (disjoint per trial) and the
// chunk-local accumulator. It reads the shared parameters (pp) and their
// log tables, which are immutable within one EM iteration.
func eStepChunk(acc *emAcc, ch *emChunk, trials []episodeTrials, resp []topic.Dist,
	pp []float64, lt *logTables, logL []float64, useProp bool, Z, M, V int) {

	lenE, lenW := len(ch.edges), len(ch.words)
	for ti := ch.lo; ti < ch.hi; ti++ {
		tr := &trials[ti]
		// E-step: log responsibility per topic. Each logL[z] adds the
		// prior, then words, success groups and failures in the trial's
		// reference order; only multi-parent groups take a log here.
		copy(logL, lt.prior)
		for _, w := range tr.words {
			for z := range logL {
				logL[z] += lt.word[z*V+w]
			}
		}
		if useProp {
			for _, sg := range tr.successes {
				if len(sg.parents) == 1 {
					row := lt.succ1[int(sg.parents[0])*Z:][:Z]
					for z := range logL {
						logL[z] += row[z]
					}
					continue
				}
				for z := range logL {
					rowP := pp[z*M : (z+1)*M]
					pNone := 1.0
					for _, e := range sg.parents {
						pNone *= 1 - rowP[e]
					}
					logL[z] += math.Log(1 - pNone + 1e-12)
				}
			}
			for _, e := range tr.failures {
				row := lt.fail[int(e)*Z:][:Z]
				for z := range logL {
					logL[z] += row[z]
				}
			}
		}
		maxv := math.Inf(-1)
		for _, v := range logL {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for z := 0; z < Z; z++ {
			resp[ti][z] = math.Exp(logL[z] - maxv)
			sum += resp[ti][z]
		}
		acc.ll += maxv + math.Log(sum)
		for z := 0; z < Z; z++ {
			resp[ti][z] /= sum
		}

		// Accumulate M-step statistics into the chunk-local rows. Reads
		// (pp) use global edge ids; writes use the precomputed local ids.
		pl := ch.parentsLocal[ti-ch.lo]
		fl := ch.failsLocal[ti-ch.lo]
		wl := ch.wordsLocal[ti-ch.lo]
		for z := 0; z < Z; z++ {
			rz := resp[ti][z]
			if rz < 1e-12 {
				continue
			}
			acc.prior[z] += rz
			rowW := acc.word[z*lenW : (z+1)*lenW]
			for _, lw := range wl {
				rowW[lw] += rz
			}
			rowP := pp[z*M : (z+1)*M]
			rowSucc := acc.succ[z*lenE : (z+1)*lenE]
			rowTrial := acc.trial[z*lenE : (z+1)*lenE]
			cursor := 0
			for _, sg := range tr.successes {
				pNone := 1.0
				for _, e := range sg.parents {
					pNone *= 1 - rowP[e]
				}
				pAny := 1 - pNone
				if pAny < 1e-12 {
					pAny = 1e-12
				}
				for j, e := range sg.parents {
					// Saito credit: probability that edge e was the
					// successful activator given at least one succeeded.
					le := pl[cursor+j]
					rowSucc[le] += rz * rowP[e] / pAny
					rowTrial[le] += rz
				}
				cursor += len(sg.parents)
			}
			for _, le := range fl {
				rowTrial[le] += rz
			}
		}
	}
}

// Learn runs EM over the log and graph. With cfg.Restarts > 1 it runs
// that many independent initializations and returns the one with the
// best final log-likelihood.
//
// Memory is dominated by Z×M float64 arrays (M = edges): the parameters
// pp, the two M-step accumulators, and the per-iteration log tables of
// the failure and one-parent success terms — five in all, the tables
// 2·Z·M·8 bytes of them (≈8 MiB at 64 k edges and Z = 8). None of it
// outlives the call.
func Learn(g *graph.Graph, log *actionlog.Log, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	learnStart := time.Now()
	if cfg.Restarts > 1 {
		var best *Result
		for r := 0; r < cfg.Restarts; r++ {
			c := cfg
			c.Restarts = 1
			c.Seed = cfg.Seed + uint64(r)*0x9e3779b97f4a7c15
			res, err := Learn(g, log, c)
			if err != nil {
				return nil, err
			}
			if best == nil ||
				res.LogLikelihood[len(res.LogLikelihood)-1] >
					best.LogLikelihood[len(best.LogLikelihood)-1] {
				best = res
			}
		}
		best.Elapsed = time.Since(learnStart)
		return best, nil
	}
	if log.NumUsers != g.NumNodes() {
		return nil, fmt.Errorf("em: log covers %d users, graph has %d nodes",
			log.NumUsers, g.NumNodes())
	}
	vocab := collectVocab(log)
	if len(vocab) == 0 {
		return nil, fmt.Errorf("em: action log contains no keywords")
	}
	vocabID := make(map[string]int, len(vocab))
	for i, w := range vocab {
		vocabID[w] = i
	}
	trials := extractTrials(g, log, vocabID)
	if len(trials) == 0 {
		return nil, fmt.Errorf("em: action log contains no usable episodes")
	}

	Z, V, M := cfg.Topics, len(vocab), g.NumEdges()
	r := rng.New(cfg.Seed)

	// Parameters. pp is Z*M, pwz is Z*V (row-major by topic).
	pp := make([]float64, Z*M)
	for i := range pp {
		pp[i] = 0.05 + 0.25*r.Float64()
	}
	pwz := make([]float64, Z*V)
	for z := 0; z < Z; z++ {
		row := pwz[z*V : (z+1)*V]
		sum := 0.0
		for w := range row {
			row[w] = 0.5 + r.Float64()
			sum += row[w]
		}
		for w := range row {
			row[w] /= sum
		}
	}
	prior := make([]float64, Z)
	for z := range prior {
		prior[z] = 1 / float64(Z)
	}

	resp := make([]topic.Dist, len(trials))
	for i := range resp {
		resp[i] = make(topic.Dist, Z)
	}
	var llHist []float64

	// The E-step is embarrassingly parallel over trials — within one
	// iteration it only reads pp and the log tables and writes resp[ti] —
	// but the M-step accumulators are floating-point sums whose value depends on
	// addition order. Trials are therefore sharded into fixed-size
	// chunks (boundaries independent of the worker count), each chunk
	// accumulates locally, and chunk accumulators are merged into the
	// global ones strictly in chunk order: the exact same additions in
	// the exact same order for 1 worker and for N.
	chunks := makeChunks(trials, M, V)
	workers := par.Resolve(cfg.Workers)
	logLs := make([][]float64, workers)
	for w := range logLs {
		logLs[w] = make([]float64, Z)
	}
	// Accumulators are sized per chunk on reset; the pool bounds live
	// instances to the OrderedMerge window (≈2×workers).
	accPool := sync.Pool{New: func() any { return &emAcc{} }}

	// Global M-step accumulators.
	accSucc := make([]float64, Z*M) // responsibility-weighted activator credit
	accTrial := make([]float64, Z*M)
	accWord := make([]float64, Z*V)
	accPrior := make([]float64, Z)
	lt := newLogTables(Z, V, M)

	// Iteration 0 is the keyword-anchoring pass (not recorded in the
	// likelihood history); iterations 1..Iterations are fully joint.
	for iter := 0; iter <= cfg.Iterations; iter++ {
		for i := range accSucc {
			accSucc[i] = 0
			accTrial[i] = 0
		}
		for i := range accWord {
			accWord[i] = 0
		}
		for i := range accPrior {
			accPrior[i] = 0
		}
		totalLL := 0.0

		// In the first iteration the edge probabilities are random noise,
		// and the propagation likelihood (hundreds of per-edge terms) can
		// drown the keyword evidence and flip whole episodes to arbitrary
		// topics. Anchor the first E-step to keywords only; subsequent
		// iterations are fully joint.
		useProp := iter > 0
		lt.fill(pp, pwz, prior, useProp, Z, M, cfg.Workers)

		par.OrderedMerge(cfg.Workers, len(chunks),
			func(w, ci int) *emAcc {
				acc := accPool.Get().(*emAcc)
				acc.reset(&chunks[ci], Z)
				eStepChunk(acc, &chunks[ci], trials, resp, pp, lt, logLs[w], useProp, Z, M, V)
				return acc
			},
			func(ci int, acc *emAcc) {
				ch := &chunks[ci]
				lenE, lenW := len(ch.edges), len(ch.words)
				for z := 0; z < Z; z++ {
					gSucc, gTrial := accSucc[z*M:(z+1)*M], accTrial[z*M:(z+1)*M]
					lSucc, lTrial := acc.succ[z*lenE:(z+1)*lenE], acc.trial[z*lenE:(z+1)*lenE]
					for li, e := range ch.edges {
						gSucc[e] += lSucc[li]
						gTrial[e] += lTrial[li]
					}
					gWord := accWord[z*V : (z+1)*V]
					lWord := acc.word[z*lenW : (z+1)*lenW]
					for li, wd := range ch.words {
						gWord[wd] += lWord[li]
					}
					accPrior[z] += acc.prior[z]
				}
				totalLL += acc.ll
				accPool.Put(acc)
			})

		// M-step.
		priorSum := 0.0
		for z := 0; z < Z; z++ {
			accPrior[z] += cfg.Smoothing
			priorSum += accPrior[z]
		}
		for z := 0; z < Z; z++ {
			prior[z] = accPrior[z] / priorSum
		}
		for z := 0; z < Z; z++ {
			rowW := accWord[z*V : (z+1)*V]
			sum := 0.0
			for w := range rowW {
				rowW[w] += cfg.Smoothing
				sum += rowW[w]
			}
			dst := pwz[z*V : (z+1)*V]
			for w := range rowW {
				dst[w] = rowW[w] / sum
			}
		}
		for idx := range pp {
			if accTrial[idx] > 1e-9 {
				// Beta(0, EdgePrior) posterior mean: weakly observed
				// (edge, topic) pairs shrink toward zero rather than
				// inheriting the edge's success rate from other topics.
				p := accSucc[idx] / (accTrial[idx] + cfg.EdgePrior)
				if p > 1 {
					p = 1
				}
				pp[idx] = p
			} else {
				// No trials at all for this edge under this topic: decay
				// the random initialization toward the sparse prior.
				pp[idx] *= 0.5
			}
		}
		if useProp {
			llHist = append(llHist, totalLL)
		}
	}

	// Export models.
	mb := tic.NewBuilder(g, Z)
	for z := 0; z < Z; z++ {
		rowP := pp[z*M : (z+1)*M]
		for e := 0; e < M; e++ {
			if rowP[e] >= cfg.MinProb {
				if err := mb.SetProb(graph.EdgeID(e), z, rowP[e]); err != nil {
					return nil, err
				}
			}
		}
	}
	rows := make([][]float64, Z)
	for z := 0; z < Z; z++ {
		rows[z] = append([]float64(nil), pwz[z*V:(z+1)*V]...)
	}
	km, err := topic.NewModel(vocab, rows, topic.Dist(prior))
	if err != nil {
		return nil, err
	}
	return &Result{
		Propagation:      mb.Build(),
		Keywords:         km,
		LogLikelihood:    llHist,
		Responsibilities: resp,
		Elapsed:          time.Since(learnStart),
	}, nil
}

func collectVocab(log *actionlog.Log) []string {
	seen := map[string]bool{}
	var vocab []string
	for _, ep := range log.Episodes {
		for _, w := range ep.Item.Keywords {
			if !seen[w] {
				seen[w] = true
				vocab = append(vocab, w)
			}
		}
	}
	sort.Strings(vocab)
	return vocab
}

// extractTrials converts each episode into IC activation trials: for an
// action (v,t), in-neighbors of v active strictly before t form the
// success group of v; for each actor u and each out-neighbor v of u that
// never acted, the edge (u,v) is a failure trial.
func extractTrials(g *graph.Graph, log *actionlog.Log, vocabID map[string]int) []episodeTrials {
	var out []episodeTrials
	// actTime[u] is u's action time in the episode whose index+1 is
	// actStamp[u]; any other stamp means u did not act in it.
	actTime := make([]int64, g.NumNodes())
	actStamp := make([]int, g.NumNodes())
	for ei, ep := range log.Episodes {
		if len(ep.Actions) == 0 {
			continue
		}
		stamp := ei + 1
		for _, a := range ep.Actions {
			actTime[a.User] = a.Time
			actStamp[a.User] = stamp
		}
		tr := episodeTrials{item: ei}
		for _, w := range ep.Item.Keywords {
			if id, ok := vocabID[w]; ok {
				tr.words = append(tr.words, id)
			}
		}
		for _, a := range ep.Actions {
			v := a.User
			lo, hi := g.InSlots(v)
			var parents []graph.EdgeID
			for s := lo; s < hi; s++ {
				u := g.InSrc(s)
				if actStamp[u] == stamp && actTime[u] < a.Time {
					parents = append(parents, g.InEdgeID(s))
				}
			}
			if len(parents) > 0 {
				tr.successes = append(tr.successes, successGroup{parents: parents})
			}
			elo, ehi := g.OutEdges(v)
			for e := elo; e < ehi; e++ {
				if actStamp[g.Dst(e)] != stamp {
					tr.failures = append(tr.failures, e)
				}
			}
		}
		if len(tr.successes) > 0 || len(tr.failures) > 0 || len(tr.words) > 0 {
			out = append(out, tr)
		}
	}
	return out
}
