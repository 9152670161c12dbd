package otim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/rng"
	"octopus/internal/topic"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden-queries.txt from the current engine")

const goldenPath = "testdata/golden-queries.txt"

type goldenQuery struct {
	name  string
	gamma topic.Dist
	opt   QueryOptions
}

// goldenWorld is the fixed model and index every golden query runs
// against.
func goldenWorld(t testing.TB) *Index {
	return buildIdx(t, testWorld(t, 400, 4, 22))
}

// goldenQueries covers every branch of the best-effort loop: K from 1 to
// 20 under exact greedy, ε-approximate picks, the skipped local tier,
// and other θ and tree caps.
func goldenQueries() []goldenQuery {
	r := rng.New(7)
	draw := func() topic.Dist { return topic.Dist(r.DirichletSym(0.5, 2)) }
	var qs []goldenQuery
	add := func(name string, gamma topic.Dist, opt QueryOptions) {
		qs = append(qs, goldenQuery{name, gamma, opt})
	}
	for k := 1; k <= 20; k++ {
		add(fmt.Sprintf("exact-k%d", k), draw(), QueryOptions{K: k})
	}
	for _, k := range []int{3, 7, 12, 20} {
		add(fmt.Sprintf("eps0.1-k%d", k), draw(), QueryOptions{K: k, Epsilon: 0.1})
	}
	for _, k := range []int{4, 10} {
		add(fmt.Sprintf("skiplocal-k%d", k), draw(), QueryOptions{K: k, SkipLocalBound: true})
	}
	// Three draws once fed neighborhood-bound queries; they are still
	// made so every later query keeps its γ and its golden line.
	for range 3 {
		draw()
	}
	add("theta0.005-k6", draw(), QueryOptions{K: 6, Theta: 0.005})
	add("maxnodes50-k6", draw(), QueryOptions{K: 6, MaxTreeNodes: 50})
	add("theta0.02-eps-maxnodes30-k10", draw(), QueryOptions{K: 10, Theta: 0.02, Epsilon: 0.1, MaxTreeNodes: 30})
	return qs
}

func goldenBits(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return strings.Join(parts, ",")
}

func goldenIDs(ids []graph.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

// goldenLines renders every golden query's full answer, floats as their
// IEEE-754 bits, and the MIA work it took: trees built, nodes settled
// and out-edges of settled nodes examined.
func goldenLines(t testing.TB, ix *Index) []string {
	var out []string
	eng := NewEngine(ix)
	for _, q := range goldenQueries() {
		var cost obs.Cost
		q.opt.Cost = &cost
		res, err := eng.Query(q.gamma, q.opt)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		st := res.Stats
		out = append(out, fmt.Sprintf(
			"%s seeds=%s spreads=%s cheap=%d local=%d exact=%d pruned=%d mia.trees=%d mia.nodes=%d mia.edges=%d",
			q.name, goldenIDs(res.Seeds), goldenBits(res.Spreads),
			st.CheapBounds, st.LocalBounds, st.ExactEvals, st.Pruned,
			cost.MIA.Trees, cost.MIA.Nodes, cost.MIA.Edges))
	}
	return out
}

// goldenFloatKeys are the fields holding float bits; everything else
// compares exactly on every architecture.
var goldenFloatKeys = map[string]bool{"spreads": true}

// sameGoldenLine compares two rendered lines: bitwise on amd64, where
// the golden file was generated, and with a 1e-12 relative tolerance on
// float fields elsewhere (arm64 may fuse multiply-adds).
func sameGoldenLine(want, got string) bool {
	if want == got {
		return true
	}
	if runtime.GOARCH == "amd64" {
		return false
	}
	wf, gf := strings.Fields(want), strings.Fields(got)
	if len(wf) != len(gf) {
		return false
	}
	for i := range wf {
		if wf[i] == gf[i] {
			continue
		}
		wk, wv, _ := strings.Cut(wf[i], "=")
		gk, gv, _ := strings.Cut(gf[i], "=")
		if wk != gk || !goldenFloatKeys[wk] {
			return false
		}
		ws, gs := strings.Split(wv, ","), strings.Split(gv, ",")
		if len(ws) != len(gs) {
			return false
		}
		for j := range ws {
			wb, err1 := strconv.ParseUint(ws[j], 16, 64)
			gb, err2 := strconv.ParseUint(gs[j], 16, 64)
			if err1 != nil || err2 != nil {
				return false
			}
			w, g := math.Float64frombits(wb), math.Float64frombits(gb)
			if math.Abs(w-g) > 1e-12*math.Max(math.Abs(w), math.Abs(g)) {
				return false
			}
		}
	}
	return true
}

// TestGoldenQueries pins the engine's answers — seeds, the bits of every
// spread, the work statistics and the MIA work counters — to the
// checked-in file, so a change to how exact evaluation is computed
// (storage, memoization, heap mechanics) cannot move a single answer bit.
// Regenerate only for an intended answer change:
//
//	go test ./internal/otim -run TestGoldenQueries -update
func TestGoldenQueries(t *testing.T) {
	got := goldenLines(t, goldenWorld(t))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d golden lines, engine produced %d", len(want), len(got))
	}
	for i := range want {
		if !sameGoldenLine(want[i], got[i]) {
			t.Errorf("line %d differs\nwant %s\ngot  %s", i+1, want[i], got[i])
		}
	}
}
