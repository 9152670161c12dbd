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
// a log per trial, and an edge's terms are filled only if some trial
// reads them.
//
// Trials have one layout, a flat table of int32 references: per trial
// its success groups (one segment of parent edges each), its failure
// edges, then its keyword ids. Extraction writes it with global ids, per
// 256-episode block, appended in episode order; then each 256-trial
// chunk rewrites its references in place to chunk-local ids (indexes
// into the chunk's edge and keyword lists), so each is held once.
//
// Every pass of an iteration runs on all workers without moving a bit.
// The E-step runs per fixed chunk of trials into chunk-local partial
// sums; par.OrderedFold folds the partials into the global rows in chunk
// order, one lane per block of edges plus one for the keyword rows,
// prior and likelihood, so each row sees the additions of the serial
// learner in the same order. A lane that has folded every chunk runs
// the M-step for its rows at once, zeroes them, and fills the next
// iteration's log terms for them.
package em

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
	// Topics is Z, the number of latent topics. Required, at most 65 536.
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
	// Workers bounds the fan-out of every learning pass — trial
	// extraction, chunk set-up, the E-step, the chunk folds and the
	// per-block M-step (0 = one worker per GOMAXPROCS slot, 1 =
	// serial). The learned model is bit-identical for every worker
	// count: trials are sharded into fixed-size chunks whose partial
	// sums every row folds in chunk order.
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
	if c.Topics > 1<<16 {
		// A tic.Model stores topic ids as uint16.
		return fmt.Errorf("em: Topics must be at most %d, got %d", 1<<16, c.Topics)
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
	c.MinProb, c.Smoothing, c.EdgePrior = threshold(c.MinProb, 1e-4),
		threshold(c.Smoothing, 0.01), threshold(c.EdgePrior, 0.5)
	return nil
}

// threshold resolves one of the three thresholds: the zero value
// selects the default, so a negative sentinel is the explicit way to
// request "exactly zero".
func threshold(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return max(v, 0)
}

// Result carries the learned model pair plus diagnostics.
type Result struct {
	Propagation *tic.Model   // learned ppᶻᵤᵥ bound to the graph
	Keywords    *topic.Model // learned p(w|z) and p(z)
	// LogLikelihood per EM iteration (keyword + propagation terms).
	LogLikelihood []float64
	// Responsibilities[i] is the final topic posterior of trial i. Trials
	// are the log's episodes in order, minus those that carry no
	// reference: an episode with no actions (actionlog.Build leaves one
	// for an item id that repeats) or with no success group, failure edge
	// or keyword.
	Responsibilities []topic.Dist
	// Elapsed is the wall-clock learning time (across all restarts when
	// Restarts > 1) — a stage timer for the observability layer.
	Elapsed time.Duration
}

// trialTable is the trial layout of the package comment: segment s
// spans refs[seg[s]:seg[s+1]], trial t's segments start at
// seg[first[t]], and both offset arrays end with a sentinel.
type trialTable struct {
	refs  []int32
	seg   []int32
	first []int32
}

// count returns the number of trials.
func (tt *trialTable) count() int { return len(tt.first) - 1 }

// bounds returns trial t's segment starts followed by its end: for k
// success groups, k+3 values. Group g spans refs[b[g]:b[g+1]], the
// failures refs[b[k]:b[k+1]] and the words refs[b[k+1]:b[k+2]].
func (tt *trialTable) bounds(t int) []int32 { return tt.seg[tt.first[t] : tt.first[t+1]+1] }

// chunkTrials is the fixed E-step shard size. It must not depend on the
// worker count: chunk boundaries define the floating-point merge order,
// which is what makes parallel learning bit-identical to serial.
const chunkTrials = 256

// Each fold lane owns one block of edge ids: the lane adds every
// chunk's partial rows for those edges, then refits, zeroes and re-logs
// them. Blocks span at least minEdgeBlock edges, and there are at most
// maxEdgeLanes of them, so a lane's work per chunk outweighs its
// scheduling and par.OrderedFold's per-decision scan over the lanes
// stays short on any graph. Lanes partition rows, not additions, so the
// block size cannot change a bit.
const (
	minEdgeBlock = 4096
	maxEdgeLanes = 64
)

// edgeBlocks returns the block span and the number of blocks for M
// edges.
func edgeBlocks(M int) (span, blocks int) {
	span = max(minEdgeBlock, (M+maxEdgeLanes-1)/maxEdgeLanes)
	return span, (M + span - 1) / span
}

// emChunk is one fixed shard of trials plus the distinct edge/keyword
// rows they touch. Its view of the trial table holds local ids: edge
// reference l names edges[l], keyword reference l words[l], and the
// accumulators use the same ids, so the hot loop never looks one up.
type emChunk struct {
	lo     int
	trials trialTable // trial t is trial lo+t
	// edges are the distinct edges touched, by edge block; within a
	// block, the edges some success group names come first, then the
	// failure-only ones, each run ascending.
	edges []graph.EdgeID
	words []int32 // distinct keyword ids touched, ascending
	// Block b's rows are edges[cut[2b]:cut[2b+2]], its success-group
	// edges edges[cut[2b]:cut[2b+1]]. A failure-only edge's succ row
	// stays zero, so the fold skips it: adding +0 changes no bit.
	cut []int32
}

// makeChunks shards the trials into fixed-size chunks, one chunk per
// task, records each chunk's touched edge/keyword sets and rewrites its
// references in place to local ids: from then on tt is the chunks'
// storage. Accumulators are then sized to the chunk's content —
// O(chunk references), never O(Z·M) — which keeps parallel EM's memory
// footprint flat in the graph size.
func makeChunks(tt trialTable, M, V, workers int) []emChunk {
	span, blocks := edgeBlocks(M)
	chunks := make([]emChunk, (tt.count()+chunkTrials-1)/chunkTrials)
	// Per worker, stampsE/stampsW double as "seen" stamps: non-zero
	// means touched by the current chunk (an edge's 2 if it names a
	// success group, 1 if it is failure-only), then the local index + 1;
	// each touched entry is reset to 0 after the chunk.
	workers = min(par.Resolve(workers), len(chunks))
	stampsE, stampsW := make([][]int32, workers), make([][]int32, workers)
	for w := range stampsE {
		stampsE[w], stampsW[w] = make([]int32, M), make([]int32, V)
	}
	refs := tt.refs
	par.Each(workers, len(chunks), func(w, ci int) {
		localE, localW := stampsE[w], stampsW[w]
		lo := ci * chunkTrials
		hi := min(lo+chunkTrials, tt.count())
		ch := emChunk{lo: lo, trials: trialTable{refs: refs, seg: tt.seg, first: tt.first[lo : hi+1]}}
		// Pass 1: collect + sort distinct sets.
		for t := range hi - lo {
			b := ch.trials.bounds(t)
			k := len(b) - 3
			for _, e := range refs[b[0]:b[k]] {
				if localE[e] == 0 {
					ch.edges = append(ch.edges, e)
				}
				localE[e] = 2 // names a success group
			}
			for _, e := range refs[b[k]:b[k+1]] {
				if localE[e] == 0 {
					localE[e] = 1
					ch.edges = append(ch.edges, e)
				}
			}
			for _, wd := range refs[b[k+1]:b[k+2]] {
				if localW[wd] == 0 {
					localW[wd] = 1
					ch.words = append(ch.words, wd)
				}
			}
		}
		// seg is an edge's run: 2·block, +1 when it is failure-only.
		// Sorting (seg, edge) keys orders the edges run by run.
		seg := func(e graph.EdgeID) int { return 2*(int(e)/span) + 2 - int(localE[e]) }
		keys := make([]uint64, len(ch.edges))
		for i, e := range ch.edges {
			keys[i] = uint64(seg(e))<<32 | uint64(e)
		}
		slices.Sort(keys)
		for i, k := range keys {
			ch.edges[i] = graph.EdgeID(uint32(k))
		}
		slices.Sort(ch.words)
		ch.cut = make([]int32, 2*blocks+1)
		run := 0
		for li, e := range ch.edges {
			for s := seg(e); run < s; {
				run++
				ch.cut[run] = int32(li)
			}
			localE[e] = int32(li) + 1
		}
		for run < 2*blocks {
			run++
			ch.cut[run] = int32(len(ch.edges))
		}
		for li, wd := range ch.words {
			localW[wd] = int32(li) + 1
		}
		// Pass 2: rewrite every reference to its local id.
		for t := range hi - lo {
			b := ch.trials.bounds(t)
			k := len(b) - 3
			for i := b[0]; i < b[k+1]; i++ {
				refs[i] = localE[refs[i]] - 1
			}
			for i := b[k+1]; i < b[k+2]; i++ {
				refs[i] = localW[refs[i]] - 1
			}
		}
		// Reset stamps for the worker's next chunk.
		for _, e := range ch.edges {
			localE[e] = 0
		}
		for _, wd := range ch.words {
			localW[wd] = 0
		}
		chunks[ci] = ch
	})
	return chunks
}

// emAcc is a chunk-local accumulator sized to the owning chunk's
// touched rows: succ/trial are len(chunk.edges)×Z (edge-major, like the
// global rows they fold into), word is Z×len(chunk.words), indexed by
// the chunk's local ids. Recycled instances grow to the largest chunk
// they have served. Folding zeroes every row it adds, so a recycled
// accumulator is zero over its whole capacity and reset only re-slices.
type emAcc struct {
	succ, trial []float64
	word        []float64
	prior       []float64 // Z
	ll          float64
}

// sized returns s resized to n, reusing its capacity, which must be
// all zero.
func sized(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
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
// edge-major, so one reference reads all Z topics from one cache line,
// and an edge's row is filled only if some trial reads it (reads).
//
// Each entry is the exact float64 a per-reference math.Log call would
// return (for one parent, 1.0·(1 − pp) == 1 − pp), so adding table rows
// in the trial's reference order reproduces every per-topic sum bit for
// bit.
type logTables struct {
	prior, word []float64
	fail, succ1 []float64
	reads       []uint8 // per edge: readsFail | readsSucc1
}

const (
	readsFail  = 1 << iota // some trial has the edge as a failure
	readsSucc1             // some trial has it as a one-parent success
)

func newLogTables(tt trialTable, Z, V, M int) *logTables {
	t := &logTables{
		prior: make([]float64, Z),
		word:  make([]float64, Z*V),
		fail:  make([]float64, M*Z),
		succ1: make([]float64, M*Z),
		reads: make([]uint8, M),
	}
	for i := range tt.count() {
		b := tt.bounds(i)
		k := len(b) - 3
		for g := range k {
			if b[g+1]-b[g] == 1 {
				t.reads[tt.refs[b[g]]] |= readsSucc1
			}
		}
		for _, e := range tt.refs[b[k]:b[k+1]] {
			t.reads[e] |= readsFail
		}
	}
	return t
}

// fillKeywords recomputes the prior and keyword terms.
func (t *logTables) fillKeywords(pwz, prior []float64) {
	for z, p := range prior {
		t.prior[z] = math.Log(p)
	}
	for i, p := range pwz {
		t.word[i] = math.Log(p + 1e-300)
	}
}

// fillEdges recomputes the read edge terms of edges [lo, hi) from pp
// (edge-major, like the tables). Every entry is a pure function of its
// parameter, so splitting the fill cannot change a bit.
func (t *logTables) fillEdges(pp []float64, lo, hi, Z int) {
	for e := lo; e < hi; e++ {
		r := t.reads[e]
		if r == 0 {
			continue
		}
		row := pp[e*Z : (e+1)*Z]
		if r&readsFail != 0 {
			fail := t.fail[e*Z : (e+1)*Z]
			for z, p := range row {
				fail[z] = math.Log(1 - p + 1e-12)
			}
		}
		if r&readsSucc1 != 0 {
			succ1 := t.succ1[e*Z : (e+1)*Z]
			for z, p := range row {
				succ1[z] = math.Log(1 - (1 - p) + 1e-12)
			}
		}
	}
}

// eScratch is one worker's E-step scratch: the per-topic log
// responsibilities, the masked responsibilities the accumulation adds,
// and the no-parent-succeeds product of every success group of the
// current trial (group-major, Z per group).
type eScratch struct {
	logL, r, pNone []float64
}

// eStepChunk runs the E-step plus M-step accumulation for one chunk of
// trials, writing responsibilities (disjoint per trial) and the
// chunk-local accumulator. It reads the shared parameters (pp,
// edge-major) and their log tables, which are immutable within one EM
// iteration, at the global ids its local references name.
//
// Per accumulator cell the additions are those of the trial-major,
// topic-by-topic loop the learner is pinned to: trials in order, then
// references in order. A topic whose responsibility is below 1e-12
// adds nothing there; here it adds +0.0, which leaves a non-negative
// sum's bits unchanged, so every row is updated Z topics at a time.
func eStepChunk(acc *emAcc, ch *emChunk, resp []topic.Dist,
	pp []float64, lt *logTables, sc *eScratch, useProp bool, Z, V int) {

	logL, r := sc.logL, sc.r
	refs := ch.trials.refs
	for t := range ch.trials.count() {
		b := ch.trials.bounds(t)
		k := len(b) - 3 // success groups
		fails, words := refs[b[k]:b[k+1]], refs[b[k+1]:b[k+2]]
		// E-step: log responsibility per topic. Each logL[z] adds the
		// prior, then words, success groups and failures in the trial's
		// reference order; only multi-parent groups take a log here.
		copy(logL, lt.prior)
		for _, lw := range words {
			w := int(ch.words[lw])
			for z := range logL {
				logL[z] += lt.word[z*V+w]
			}
		}
		// pNone[g·Z+z]: the probability that no parent of success group
		// g succeeded under topic z, multiplied in parent order.
		if need := k * Z; cap(sc.pNone) < need {
			sc.pNone = make([]float64, need)
		}
		pNone := sc.pNone[:k*Z]
		for g := range k {
			pn := pNone[g*Z:][:len(logL)]
			for z := range pn {
				pn[z] = 1
			}
			for _, le := range refs[b[g]:b[g+1]] {
				row := pp[int(ch.edges[le])*Z:][:len(pn)]
				for z := range pn {
					pn[z] *= 1 - row[z]
				}
			}
			if !useProp {
				continue
			}
			if b[g+1]-b[g] == 1 {
				row := lt.succ1[int(ch.edges[refs[b[g]]])*Z:][:len(logL)]
				for z := range logL {
					logL[z] += row[z]
				}
				continue
			}
			for z := range logL {
				logL[z] += math.Log(1 - pn[z] + 1e-12)
			}
		}
		if useProp {
			for _, le := range fails {
				row := lt.fail[int(ch.edges[le])*Z:][:len(logL)]
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
		rt := resp[ch.lo+t]
		sum := 0.0
		for z := 0; z < Z; z++ {
			rt[z] = math.Exp(logL[z] - maxv)
			sum += rt[z]
		}
		acc.ll += maxv + math.Log(sum)
		for z := 0; z < Z; z++ {
			rt[z] /= sum
			if rt[z] < 1e-12 {
				r[z] = 0
			} else {
				r[z] = rt[z]
			}
		}

		// Accumulate M-step statistics into the chunk-local rows. Reads
		// (pp) use global edge ids; writes use the local ids.
		lenW := len(ch.words)
		for z, rz := range r {
			acc.prior[z] += rz
			rowW := acc.word[z*lenW : (z+1)*lenW]
			for _, lw := range words {
				rowW[lw] += rz
			}
		}
		for g := range k {
			pn := pNone[g*Z:][:Z]
			for z, v := range pn {
				// pn becomes pAny: the probability some parent succeeded.
				pn[z] = max(1-v, 1e-12)
			}
			for _, le := range refs[b[g]:b[g+1]] {
				// Saito credit: probability that edge e was the
				// successful activator given at least one succeeded.
				row, pn := pp[int(ch.edges[le])*Z:][:len(r)], pn[:len(r)]
				succ, trial := acc.succ[int(le)*Z:][:len(r)], acc.trial[int(le)*Z:][:len(r)]
				for z, rz := range r {
					succ[z] += rz * row[z] / pn[z]
					trial[z] += rz
				}
			}
		}
		for _, le := range fails {
			trial := acc.trial[int(le)*Z:][:len(r)]
			for z, rz := range r {
				trial[z] += rz
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
	vocab, vocabID := collectVocab(log)
	if len(vocab) == 0 {
		return nil, fmt.Errorf("em: action log contains no keywords")
	}
	workers := par.Resolve(cfg.Workers)
	trials, err := extractTrials(g, log, vocabID, workers)
	if err != nil {
		return nil, err
	}
	if trials.count() == 0 {
		return nil, fmt.Errorf("em: action log contains no usable episodes")
	}

	Z, V, M := cfg.Topics, len(vocab), g.NumEdges()
	r := rng.New(cfg.Seed)

	// Parameters. pp is M×Z (edge-major, drawn topic by topic), pwz is
	// Z×V (row-major by topic).
	pp := make([]float64, M*Z)
	for z := 0; z < Z; z++ {
		for e := 0; e < M; e++ {
			pp[e*Z+z] = 0.05 + 0.25*r.Float64()
		}
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

	resp := make([]topic.Dist, trials.count())
	flat := make([]float64, trials.count()*Z)
	for i := range resp {
		resp[i] = flat[i*Z : (i+1)*Z : (i+1)*Z]
	}
	var llHist []float64

	// Every pass runs through par.OrderedFold (see the package comment):
	// the E-step per chunk, its partials folded in chunk order by lanes
	// that own an edge block each or the keyword rows, prior and
	// likelihood, each lane then refitting, zeroing and re-logging them.
	// The log tables' read flags come from the trials' global ids, so
	// they are taken before makeChunks rewrites them to local ones.
	lt := newLogTables(trials, Z, V, M)
	lt.fillKeywords(pwz, prior)
	chunks := makeChunks(trials, M, V, workers)
	scratch := make([]eScratch, workers)
	for w := range scratch {
		scratch[w] = eScratch{logL: make([]float64, Z), r: make([]float64, Z)}
	}
	span, blocks := edgeBlocks(M)
	keywordLane := blocks

	// Global M-step accumulators; the edge rows are edge-major like pp.
	accSucc := make([]float64, M*Z) // responsibility-weighted activator credit
	accTrial := make([]float64, M*Z)
	accWord := make([]float64, Z*V)
	accPrior := make([]float64, Z)
	// Chunk accumulators recycle across iterations, at most 2×workers of
	// them; each grows to the largest chunk it has served.
	var accs []*emAcc

	// Iteration 0 is the keyword-anchoring pass (not recorded in the
	// likelihood history); iterations 1..Iterations are fully joint.
	for iter := 0; iter <= cfg.Iterations; iter++ {
		// In the first iteration the edge probabilities are random noise,
		// and the propagation likelihood (hundreds of per-edge terms) can
		// drown the keyword evidence and flip whole episodes to arbitrary
		// topics. Anchor the first E-step to keywords only; subsequent
		// iterations are fully joint.
		useProp := iter > 0
		last := iter == cfg.Iterations
		totalLL := 0.0

		accs = par.OrderedFold(workers, len(chunks), blocks+1, accs,
			func(w, ci int, acc *emAcc) *emAcc {
				if acc == nil {
					acc = &emAcc{}
				}
				acc.reset(&chunks[ci], Z)
				eStepChunk(acc, &chunks[ci], resp, pp, lt, &scratch[w], useProp, Z, V)
				return acc
			},
			func(lane, ci int, acc *emAcc) {
				ch := &chunks[ci]
				if lane == keywordLane {
					lenW := len(ch.words)
					for z := 0; z < Z; z++ {
						gWord := accWord[z*V : (z+1)*V]
						lWord := acc.word[z*lenW : (z+1)*lenW]
						for li, wd := range ch.words {
							gWord[wd] += lWord[li]
						}
						accPrior[z] += acc.prior[z]
					}
					totalLL += acc.ll
					clear(acc.word)
					clear(acc.prior)
					return
				}
				lo, mid, hi := int(ch.cut[2*lane]), int(ch.cut[2*lane+1]), int(ch.cut[2*lane+2])
				for li := lo; li < mid; li++ {
					e := int(ch.edges[li])
					gSucc, gTrial := accSucc[e*Z:][:Z], accTrial[e*Z:][:Z]
					lSucc, lTrial := acc.succ[li*Z:][:Z], acc.trial[li*Z:][:Z]
					for z := range gSucc {
						gSucc[z] += lSucc[z]
						gTrial[z] += lTrial[z]
					}
				}
				for li := mid; li < hi; li++ {
					e := int(ch.edges[li])
					gTrial, lTrial := accTrial[e*Z:][:Z], acc.trial[li*Z:][:Z]
					for z := range gTrial {
						gTrial[z] += lTrial[z]
					}
				}
				clear(acc.succ[lo*Z : mid*Z])
				clear(acc.trial[lo*Z : hi*Z])
			},
			func(lane int) {
				// M-step for the lane's rows.
				if lane == keywordLane {
					smoothInto(prior, accPrior, cfg.Smoothing)
					for z := range Z {
						smoothInto(pwz[z*V:(z+1)*V], accWord[z*V:(z+1)*V], cfg.Smoothing)
					}
					clear(accWord)
					clear(accPrior)
					if useProp {
						llHist = append(llHist, totalLL)
					}
					if !last {
						lt.fillKeywords(pwz, prior)
					}
					return
				}
				lo, hi := lane*span, min((lane+1)*span, M)
				for idx := lo * Z; idx < hi*Z; idx++ {
					if accTrial[idx] > 1e-9 {
						// Beta(0, EdgePrior) posterior mean: weakly
						// observed (edge, topic) pairs shrink toward zero
						// rather than inheriting the edge's success rate
						// from other topics.
						p := accSucc[idx] / (accTrial[idx] + cfg.EdgePrior)
						if p > 1 {
							p = 1
						}
						pp[idx] = p
					} else {
						// No trials at all for this edge under this topic:
						// decay the random initialization toward the
						// sparse prior.
						pp[idx] *= 0.5
					}
					accSucc[idx], accTrial[idx] = 0, 0
				}
				if !last {
					lt.fillEdges(pp, lo, hi, Z)
				}
			})
	}

	// Export models.
	mb := tic.NewBuilder(g, Z)
	for e := 0; e < M; e++ {
		for z, p := range pp[e*Z : (e+1)*Z] {
			if p >= cfg.MinProb {
				if err := mb.SetProb(graph.EdgeID(e), z, p); err != nil {
					return nil, err
				}
			}
		}
	}
	rows := make([][]float64, Z) // NewModel copies them
	for z := range rows {
		rows[z] = pwz[z*V : (z+1)*V]
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

// smoothInto adds s to every count and writes each count's share of
// their sum to dst.
func smoothInto(dst, counts []float64, s float64) {
	sum := 0.0
	for i := range counts {
		counts[i] += s
		sum += counts[i]
	}
	for i, c := range counts {
		dst[i] = c / sum
	}
}

// collectVocab returns the log's distinct keywords, sorted, and each
// one's index in that order.
func collectVocab(log *actionlog.Log) ([]string, map[string]int) {
	id := map[string]int{}
	var vocab []string
	for _, ep := range log.Episodes {
		for _, w := range ep.Item.Keywords {
			if _, ok := id[w]; !ok {
				id[w] = 0
				vocab = append(vocab, w)
			}
		}
	}
	sort.Strings(vocab)
	for i, w := range vocab {
		id[w] = i
	}
	return vocab, id
}

// extractTrials converts each episode into IC activation trials: for an
// action (v,t), in-neighbors of v active strictly before t form the
// success group of v; for each actor u and each out-neighbor v of u that
// never acted, the edge (u,v) is a failure trial. Episodes are converted
// in blocks of chunkTrials into recycled block tables, appended to the
// result in episode order.
func extractTrials(g *graph.Graph, log *actionlog.Log, vocabID map[string]int, workers int) (trialTable, error) {
	eps := log.Episodes
	blocks := (len(eps) + chunkTrials - 1) / chunkTrials
	workers = min(par.Resolve(workers), blocks)
	// actTime[u] is u's action time in the episode whose index+1 is
	// actStamp[u]; any other stamp means u did not act in it. Stamps are
	// episode-unique, so a worker's arrays never need a reset.
	actTime, actStamp := make([][]int64, workers), make([][]int, workers)
	for w := range actTime {
		actTime[w], actStamp[w] = make([]int64, g.NumNodes()), make([]int, g.NumNodes())
	}
	var tt trialTable
	par.OrderedFold(workers, blocks, 1, nil,
		func(w, b int, p trialTable) trialTable {
			p.refs, p.seg, p.first = p.refs[:0], p.seg[:0], p.first[:0]
			actTime, actStamp := actTime[w], actStamp[w]
			for ei := b * chunkTrials; ei < min((b+1)*chunkTrials, len(eps)); ei++ {
				ep := &eps[ei]
				if len(ep.Actions) == 0 {
					continue
				}
				stamp := ei + 1
				for _, a := range ep.Actions {
					actTime[a.User] = a.Time
					actStamp[a.User] = stamp
				}
				refs0, segs0 := len(p.refs), len(p.seg)
				p.first = append(p.first, int32(segs0))
				for _, a := range ep.Actions {
					group := len(p.refs)
					lo, hi := g.InSlots(a.User)
					for s := lo; s < hi; s++ {
						u := g.InSrc(s)
						if actStamp[u] == stamp && actTime[u] < a.Time {
							p.refs = append(p.refs, g.InEdgeID(s))
						}
					}
					if len(p.refs) > group {
						p.seg = append(p.seg, int32(group))
					}
				}
				p.seg = append(p.seg, int32(len(p.refs)))
				for _, a := range ep.Actions {
					elo, ehi := g.OutEdges(a.User)
					for e := elo; e < ehi; e++ {
						if actStamp[g.Dst(e)] != stamp {
							p.refs = append(p.refs, e)
						}
					}
				}
				p.seg = append(p.seg, int32(len(p.refs)))
				for _, kw := range ep.Item.Keywords {
					if id, ok := vocabID[kw]; ok {
						p.refs = append(p.refs, int32(id))
					}
				}
				if len(p.refs) == refs0 { // no reference: not a trial
					p.seg, p.first = p.seg[:segs0], p.first[:len(p.first)-1]
				}
			}
			return p
		},
		func(_, _ int, p trialTable) { // rebase the block's offsets
			rb, sb := int32(len(tt.refs)), int32(len(tt.seg))
			tt.refs = append(tt.refs, p.refs...)
			for _, s := range p.seg {
				tt.seg = append(tt.seg, rb+s)
			}
			for _, f := range p.first {
				tt.first = append(tt.first, sb+f)
			}
		},
		func(int) { // close both offset arrays with their sentinels
			tt.seg = append(tt.seg, int32(len(tt.refs)))
			tt.first = append(tt.first, int32(len(tt.seg)-1))
		})
	if len(tt.refs) > math.MaxInt32 || len(tt.seg) > math.MaxInt32 {
		return trialTable{}, fmt.Errorf("em: action log has %d trial references, more than one table holds", len(tt.refs))
	}
	return tt, nil
}
