package otim

import (
	"errors"
	"fmt"
	"math"

	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/par"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// ErrDeltaTooLarge is returned by Fold when the dirty set's share of
// the precomputed tree mass exceeds BuildOptions.FoldMaxCostFrac — past
// that point a full rebuild amortizes better than delta maintenance.
var ErrDeltaTooLarge = errors.New("otim: fold delta too large")

// DirtySet returns the sorted set of nodes whose upper-envelope MIOA at
// threshold theta can differ after new out-edges of srcs were added to
// m's graph: every node that reaches some src with max-probability path
// ≥ theta (one reverse Dijkstra per distinct source, on the grown
// graph). A node outside the set provably relaxes the exact same edge
// sequence as before — a new edge (s,t) enters u's Dijkstra only when s
// is popped above theta, i.e. when u is in s's reverse ball — so its
// spread, and every index row derived from it alone, is unchanged.
func DirtySet(m *tic.Model, srcs []graph.NodeID, theta float64) []graph.NodeID {
	g := m.Graph()
	n := g.NumNodes()
	maxProb := func(e graph.EdgeID) float64 { return m.MaxProb(e) }
	calc := mia.NewCalc(g)
	in := make([]bool, n)
	count := 0
	seen := make(map[graph.NodeID]bool, len(srcs))
	for _, s := range srcs {
		if s < 0 || int(s) >= n || seen[s] {
			continue
		}
		seen[s] = true
		t := calc.MIIA(maxProb, s, theta, 0)
		for _, tn := range t.Nodes {
			if !in[tn.ID] {
				in[tn.ID] = true
				count++
			}
		}
	}
	out := make([]graph.NodeID, 0, count)
	for u := 0; u < n; u++ {
		if in[u] {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// Fold incrementally maintains the index onto a grown model: m must be
// ix's model extended with the new edges addedSrcs[i]→addedDsts[i] only
// (same node count, same topic count, existing per-edge probabilities
// carried over exactly — the contract tic.Remap fulfils on a graph
// grown with graph.Builder), and dirty must be
// DirtySet(m, addedSrcs, ix.ThetaPre()). opt must equal the options the
// index was originally built with.
//
// The fold recomputes sigmaMax only where a new edge genuinely improves
// a max-probability path (a per-edge comparison of the new path product
// against the old best path to the edge's target — far smaller than the
// full reverse ball, which is dominated by hubs that already reach the
// target better), re-derives the per-topic aggregate rows only where a
// new out-edge or a changed neighbor spread can reach them, and
// maintains the topic samples by keep/repair/re-run triage against the
// dirty ball. Every kept value is provably equal to what
// BuildIndex(m, opt) computes, so the folded index is query-for-query
// identical to a from-scratch rebuild at the same seed.
func (ix *Index) Fold(m *tic.Model, dirty, addedSrcs, addedDsts []graph.NodeID, opt BuildOptions) (*Index, error) {
	z := m.NumTopics()
	opt.fill(z)
	g := m.Graph()
	n := g.NumNodes()
	switch {
	case ix.model.Graph().NumNodes() != n:
		return nil, fmt.Errorf("otim: fold: node count changed %d → %d (rebuild required)",
			ix.model.Graph().NumNodes(), n)
	case ix.model.NumTopics() != z:
		return nil, fmt.Errorf("otim: fold: topic count changed %d → %d", ix.model.NumTopics(), z)
	case opt.ThetaPre != ix.thetaPre:
		return nil, fmt.Errorf("otim: fold: ThetaPre %v does not match index θ_pre %v", opt.ThetaPre, ix.thetaPre)
	case opt.Samples != len(ix.samples):
		return nil, fmt.Errorf("otim: fold: Samples %d does not match the %d stored samples", opt.Samples, len(ix.samples))
	case len(ix.samples) > 0 && opt.SampleTheta < opt.ThetaPre:
		// BuildIndex cannot produce such an index (sample queries reject
		// θ < θ_pre), but the sample triage's dirty ball is computed at
		// θ_pre and is only a sound superset of tree changes at θ ≥ θ_pre.
		return nil, fmt.Errorf("otim: fold: SampleTheta %v below ThetaPre %v breaks sample maintenance", opt.SampleTheta, opt.ThetaPre)
	case len(addedSrcs) != len(addedDsts):
		return nil, fmt.Errorf("otim: fold: %d added sources for %d destinations", len(addedSrcs), len(addedDsts))
	}
	for _, u := range dirty {
		if u < 0 || int(u) >= n {
			return nil, fmt.Errorf("otim: fold: dirty node %d out of range", u)
		}
	}
	sigmaDirty, err := sigmaDirtySet(ix.model, m, addedSrcs, addedDsts, opt.ThetaPre)
	if err != nil {
		return nil, err
	}
	// Cost guard: the recompute bill is the dirty set's share of the
	// precomputed tree mass, not its node count — a handful of dirty
	// hubs can own most of pass 1. Past the cap a full rebuild
	// amortizes better, so refuse and let the caller fall back.
	if len(ix.treeSize) == n {
		var dirtyMass, totalMass int64
		for _, sz := range ix.treeSize {
			totalMass += int64(sz)
		}
		for _, v := range sigmaDirty {
			dirtyMass += int64(ix.treeSize[v])
		}
		maxFrac := opt.FoldMaxCostFrac
		if maxFrac <= 0 {
			maxFrac = 0.25
		}
		if maxFrac < 1 && float64(dirtyMass) > maxFrac*float64(totalMass) {
			return nil, fmt.Errorf("otim: fold would recompute %d of %d tree nodes (cap %.0f%%): %w",
				dirtyMass, totalMass, 100*maxFrac, ErrDeltaTooLarge)
		}
	}

	nix := &Index{
		model:    m,
		thetaPre: ix.thetaPre,
		sigmaMax: append([]float64(nil), ix.sigmaMax...),
		treeSize: append([]int32(nil), ix.treeSize...),
		aggr:     append([]float64(nil), ix.aggr...),
		wdeg:     append([]float64(nil), ix.wdeg...),
	}

	// Pass 1': upper-envelope spreads for the nodes whose MIOA provably
	// can differ. Identical machinery to BuildIndex pass 1; disjoint
	// per-node writes keep it worker-count independent.
	maxProb := func(e graph.EdgeID) float64 { return m.MaxProb(e) }
	calcs := make([]*mia.Calc, par.Resolve(opt.Workers))
	par.Each(opt.Workers, len(sigmaDirty), func(w, i int) {
		calc := calcs[w]
		if calc == nil {
			calc = mia.NewCalc(g)
			calcs[w] = calc
		}
		v := sigmaDirty[i]
		tree := calc.MIOA(maxProb, v, opt.ThetaPre, 0)
		nix.sigmaMax[v] = tree.Spread()
		nix.treeSize[v] = int32(tree.Size())
	})
	nix.delta = 0
	for _, s := range nix.sigmaMax {
		if s > nix.delta {
			nix.delta = s
		}
	}

	// Pass 2': aggregate rows can change only where the out-edge set
	// changed (the new-edge sources) or an out-neighbor's spread
	// changed.
	sigChanged := make([]bool, n)
	for _, v := range sigmaDirty {
		if nix.sigmaMax[v] != ix.sigmaMax[v] {
			sigChanged[v] = true
		}
	}
	inRows := make([]bool, n)
	for _, s := range addedSrcs {
		if s >= 0 && int(s) < n {
			inRows[s] = true
		}
	}
	markInNeighbors(g, sigChanged, inRows)
	rows := nodesOf(inRows)
	par.Each(opt.Workers, len(rows), func(_, i int) { nix.computeRow(int(rows[i])) })

	// Pass 3': maintain the topic samples without redoing their queries.
	// Under exact lazy greedy with sound bounds, the selected seeds are
	// a pure function of the candidates' marginal gains — bound values
	// only steer how much refinement work happens, never the answer.
	// Per sample:
	//
	//   - keep: the sample is tie-free, no stored seed is dirty and no
	//     dirty node's new first-tier bound reaches the sample's
	//     selection bar — nothing can change any round, so the stored
	//     entry is reused verbatim.
	//   - repair: replay the stored rounds with freshly evaluated seed
	//     trees, certifying round by round that each seed's fresh gain
	//     strictly beats both the round's stored runner-up bound (which
	//     dominates every unchanged candidate) and every dirty bar
	//     crosser's fresh gain; costs K + |crossers| tree evaluations
	//     instead of a full best-effort query, and refreshes
	//     Spreads/Gains exactly.
	//   - re-run: the certificate fails or is missing.
	if len(ix.samples) > 0 {
		nix.samples = append([]TopicSample(nil), ix.samples...)
		nix.sampleStop = append([]float64(nil), ix.sampleStop...)
		nix.sampleTie = append([]bool(nil), ix.sampleTie...)
		nix.sampleRU = append([][]float64(nil), ix.sampleRU...)
		dirtySet := make([]bool, n)
		for _, v := range dirty {
			dirtySet[v] = true
		}
		workers := par.Resolve(opt.Workers)
		repairCalcs := make([]*mia.Calc, workers)
		rerunFlags := make([]bool, len(ix.samples))
		par.Each(opt.Workers, len(ix.samples), func(w, i int) {
			if len(dirty) == 0 {
				return
			}
			var stop float64
			tie := true
			var ru []float64
			if i < len(ix.sampleStop) && i < len(ix.sampleTie) && i < len(ix.sampleRU) {
				stop = ix.sampleStop[i]
				tie = ix.sampleTie[i]
				ru = ix.sampleRU[i]
			}
			s := &ix.samples[i]
			if stop <= 0 || len(s.Gains) != len(s.Seeds) || len(ru) != len(s.Seeds) {
				rerunFlags[i] = true
				return
			}
			if !tie {
				seedDirty := false
				for _, seed := range s.Seeds {
					if dirtySet[seed] {
						seedDirty = true
						break
					}
				}
				if !seedDirty && len(barCrossers(nix, s.Gamma, dirty, stop)) == 0 {
					// Keep: provably unchanged. The dirty candidates screened
					// out below the bar may still have crept above the stored
					// runner-up bounds (notably the last round's), so raise RU
					// to the bar to stay a sound certificate for future folds.
					raised, copied := ru, false
					for r, v := range ru {
						if v < stop {
							if !copied {
								raised = append([]float64(nil), ru...)
								copied = true
							}
							raised[r] = stop
						}
					}
					nix.sampleRU[i] = raised
					return
				}
			}
			calc := repairCalcs[w]
			if calc == nil {
				calc = mia.NewCalc(g)
				repairCalcs[w] = calc
			}
			repaired, newStop, newRU, ok := repairSample(nix, calc, s, dirty, ru, stop, opt)
			if !ok {
				rerunFlags[i] = true
				return
			}
			nix.samples[i] = repaired
			nix.sampleStop[i] = newStop
			nix.sampleTie[i] = false // the repaired selection is strictly dominant
			nix.sampleRU[i] = newRU
		})
		var rerun []int
		for i, flag := range rerunFlags {
			if flag {
				rerun = append(rerun, i)
			}
		}
		engines := make([]*Engine, workers)
		errs := make([]error, len(rerun))
		par.Each(opt.Workers, len(rerun), func(w, ri int) {
			eng := engines[w]
			if eng == nil {
				eng = NewEngine(nix)
				engines[w] = eng
			}
			i := rerun[ri]
			errs[ri] = nix.runSample(eng, i, ix.samples[i].Gamma, opt)
		})
		for ri, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("otim: fold sample %d: %w", rerun[ri], err)
			}
		}
	}
	return nix, nil
}

// sigmaDirtySet returns the sorted set of nodes whose upper-envelope
// MIOA spread actually changes — a far sharper test than the reverse
// ball. A new edge e = (s,t) alters u's max-probability Dijkstra only
// if it strictly improves u's best path to t: the candidate
// p_new(u→s)·p̄(e) must beat p_old(u→t) (mia relaxation requires strict
// improvement, so ties change nothing). Hubs, which sit in every
// reverse ball because they reach everything, almost always already
// reach t better than through the new edge and stay clean — exactly the
// nodes whose trees are the most expensive to recompute.
//
// Per new edge this costs one reverse Dijkstra from s on the new model
// (threshold θ/p̄, so only nodes whose product can reach θ) and one
// capped reverse Dijkstra from t on the old model supplying the old
// best paths; nodes beyond the cap conservatively count as dirty.
func sigmaDirtySet(oldM, m *tic.Model, srcs, dsts []graph.NodeID, theta float64) ([]graph.NodeID, error) {
	g := m.Graph()
	oldG := oldM.Graph()
	n := g.NumNodes()
	maxProbNew := func(e graph.EdgeID) float64 { return m.MaxProb(e) }
	maxProbOld := func(e graph.EdgeID) float64 { return oldM.MaxProb(e) }
	calcNew := mia.NewCalc(g)
	calcOld := mia.NewCalc(oldG)
	const ballTCap = 4096

	// Group the new edges by source so each source's reverse ball is
	// explored once, at the loosest threshold any of its edges needs.
	type tgt struct {
		t    graph.NodeID
		pbar float64
	}
	bySrc := make(map[graph.NodeID][]tgt)
	minTh := make(map[graph.NodeID]float64)
	for i, s := range srcs {
		t := dsts[i]
		if s < 0 || int(s) >= n || t < 0 || int(t) >= n {
			return nil, fmt.Errorf("otim: fold: added edge %d→%d out of range", s, t)
		}
		e, ok := g.FindEdge(s, t)
		if !ok {
			return nil, fmt.Errorf("otim: fold: added edge %d→%d missing from the grown graph", s, t)
		}
		pbar := m.MaxProb(e)
		if pbar <= 0 {
			continue // dead under every γ: cannot alter any envelope path
		}
		th := theta / pbar
		if th > 1 {
			continue // even a certain path to s cannot carry the edge above θ
		}
		bySrc[s] = append(bySrc[s], tgt{t, pbar})
		if cur, ok := minTh[s]; !ok || th < cur {
			minTh[s] = th
		}
	}

	in := make([]bool, n)
	// Old-path balls are cached per target: live batches often carry many
	// new edges into the same popular destination, and the capped reverse
	// Dijkstra from it is the expensive half of the test.
	pOldByT := make(map[graph.NodeID]map[graph.NodeID]float64)
	for s, tgts := range bySrc {
		ballS := calcNew.MIIA(maxProbNew, s, minTh[s], 0)
		for _, e := range tgts {
			// Nodes beyond the cap stay absent from pOld and default to 0,
			// which conservatively marks them dirty.
			pOld, ok := pOldByT[e.t]
			if !ok {
				ballT := calcOld.MIIA(maxProbOld, e.t, theta, ballTCap)
				pOld = make(map[graph.NodeID]float64, len(ballT.Nodes))
				for _, tn := range ballT.Nodes {
					pOld[tn.ID] = tn.Prob
				}
				pOldByT[e.t] = pOld
			}
			for _, un := range ballS.Nodes {
				prod := un.Prob * e.pbar
				if prod < theta {
					continue
				}
				if prod > pOld[un.ID] {
					in[un.ID] = true
				}
			}
		}
	}
	out := make([]graph.NodeID, 0, 16)
	for u := 0; u < n; u++ {
		if in[u] {
			out = append(out, graph.NodeID(u))
		}
	}
	return out, nil
}

// barCrossers lists the dirty nodes whose first-tier bound under the
// folded index reaches the sample's selection bar — the only candidates
// whose changed trees could displace a stored seed. (A dirty node below
// the bar has gain ≤ bound < bar ≤ every round's gain and loses every
// round outright.)
func barCrossers(nix *Index, gamma []float64, dirty []graph.NodeID, stop float64) []graph.NodeID {
	z := nix.model.NumTopics()
	var out []graph.NodeID
	for _, u := range dirty {
		ub := 0.0
		row := nix.aggr[int(u)*z : (int(u)+1)*z]
		for zi := 0; zi < z; zi++ {
			ub += gamma[zi] * row[zi]
		}
		if 1+ub >= stop {
			out = append(out, u)
		}
	}
	return out
}

// repairSample replays the stored selection rounds against the folded
// index with freshly evaluated trees — the same cover machinery and
// evaluation order the engine uses, so every recomputed number is
// bitwise what a from-scratch query would produce. Round r is certified
// when the stored seed's fresh gain g'_r strictly beats
//
//   - the round's stored runner-up bound, which dominates every
//     candidate whose tree did not change (covers only grow pointwise
//     under edge additions, so unchanged candidates' gains only
//     shrink), and
//   - the fresh gain of every dirty "crosser" — a dirty node whose
//     first-tier bound reaches the replay's lowest bar (crossers below
//     it lose every round outright; they are screened through the
//     engine's tier-2 local bound first and retired once their gain
//     sinks under the bar floor).
//
// Strict dominance makes the selection value-determined, so the
// certificate also holds when the original run was tie-decided. On
// success it returns the refreshed sample (same seeds, exact new
// Spreads/Gains), the new selection bar, and conservatively-updated
// runner-up bounds; ok=false demands a full re-run.
func repairSample(nix *Index, calc *mia.Calc, s *TopicSample, dirty []graph.NodeID,
	oldRU []float64, oldStop float64, opt BuildOptions) (TopicSample, float64, []float64, bool) {

	m := nix.model
	gamma := topic.Dist(s.Gamma)
	prob := func(e graph.EdgeID) float64 { return m.EdgeProb(e, gamma) }
	k := len(s.Seeds)

	// Pass A: fresh seed trees, fresh gains, the runner-up margin check.
	seedTrees := make([]*mia.Tree, k)
	gains := make([]float64, k)
	spreads := make([]float64, k)
	cover := mia.NewCover(m.Graph().NumNodes())
	bar := math.Inf(1)
	for r, seed := range s.Seeds {
		seedTrees[r] = calc.MIOA(prob, seed, opt.SampleTheta, 0)
		g := cover.Gain(seedTrees[r].Nodes)
		if g <= oldRU[r] {
			// The selection margin is gone: an unchanged candidate could
			// now win this round. Cannot certify cheaply.
			return TopicSample{}, 0, nil, false
		}
		cover.Add(seedTrees[r].Nodes)
		gains[r] = g
		spreads[r] = cover.Spread()
		if g < bar {
			bar = g
		}
	}

	// Crossers: dirty nodes whose bounds reach the lowest bar of either
	// generation — everything below loses every round outright.
	screen := oldStop
	if bar < screen {
		screen = bar
	}
	seedSet := make(map[graph.NodeID]int, k)
	for r, seed := range s.Seeds {
		seedSet[seed] = r
	}
	var crossers []graph.NodeID
	for _, c := range barCrossers(nix, s.Gamma, dirty, screen) {
		if foldLocalBound(nix, gamma, c) >= screen {
			crossers = append(crossers, c)
		}
	}
	// Past this size the engine's own lazy pruning beats a flat replay.
	if len(crossers) > 4*k+32 {
		return TopicSample{}, 0, nil, false
	}

	// Pass B: replay the covers once more, checking every crosser's
	// fresh gain against each round and tightening the runner-up bounds
	// with what was measured.
	newRU := append([]float64(nil), oldRU...)
	if len(crossers) > 0 {
		type cand struct {
			id   graph.NodeID
			tree *mia.Tree
		}
		active := make([]cand, len(crossers))
		for i, c := range crossers {
			active[i] = cand{c, calc.MIOA(prob, c, opt.SampleTheta, 0)}
		}
		cover.Reset()
		for r := range s.Seeds {
			keep := active[:0]
			for _, c := range active {
				if r2, isSeed := seedSet[c.id]; isSeed && r2 == r {
					keep = append(keep, c) // its own selection round
					continue
				}
				g := cover.Gain(c.tree.Nodes)
				if g >= gains[r] {
					return TopicSample{}, 0, nil, false
				}
				if g > newRU[r] {
					newRU[r] = g
				}
				if g >= screen {
					keep = append(keep, c)
				}
			}
			active = keep
			cover.Add(seedTrees[r].Nodes)
		}
	}
	// Keep the runner-up bounds sound for FUTURE folds: dirty candidates
	// screened out below `screen` this fold may carry gains above the
	// stored runner-up (the engine's last-round peek in particular has
	// no later selection beneath it), and once they turn clean a later
	// fold bounds them only through RU. Raising to the screening bar is
	// always sound — RU is explicitly allowed to be loose.
	for r := range newRU {
		if newRU[r] < screen {
			newRU[r] = screen
		}
	}
	out := TopicSample{Gamma: s.Gamma, Seeds: s.Seeds, Spreads: spreads, Gains: gains}
	return out, gains[k-1], newRU, true
}

// foldLocalBound is the engine's tier-2 local-graph bound
// UB_L(u) = 1 + Σ_{v∈N⁺(u)} p_{u,v}(γ)·min(σ̄max(v), 1+B_γ(v)),
// evaluated against the folded index.
func foldLocalBound(nix *Index, gamma topic.Dist, u graph.NodeID) float64 {
	m := nix.model
	g := m.Graph()
	z := m.NumTopics()
	ub := 1.0
	lo, hi := g.OutEdges(u)
	for e := lo; e < hi; e++ {
		p := m.EdgeProb(e, gamma)
		if p == 0 {
			continue
		}
		v := g.Dst(e)
		var bv float64
		row := nix.aggr[int(v)*z : (int(v)+1)*z]
		for zi := 0; zi < z; zi++ {
			bv += gamma[zi] * row[zi]
		}
		capV := nix.sigmaMax[v]
		if 1+bv < capV {
			capV = 1 + bv
		}
		ub += p * capV
	}
	return ub
}

// markInNeighbors sets out[u] for every in-neighbor u of a marked node.
func markInNeighbors(g *graph.Graph, marked, out []bool) {
	for v := 0; v < len(marked); v++ {
		if !marked[v] {
			continue
		}
		lo, hi := g.InSlots(graph.NodeID(v))
		for s := lo; s < hi; s++ {
			out[g.InSrc(s)] = true
		}
	}
}

// nodesOf lists the set bits of a node mask in ascending order.
func nodesOf(mask []bool) []graph.NodeID {
	var out []graph.NodeID
	for u, ok := range mask {
		if ok {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}
