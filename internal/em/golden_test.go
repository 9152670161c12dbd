package em

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"octopus/internal/datagen"
	"octopus/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden-learn.txt from the current learner")

const goldenPath = "testdata/golden-learn.txt"

func goldenBits(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return strings.Join(parts, ",")
}

// goldenLines learns the fixed golden world — more than two E-step
// chunks of trials, with one-parent and multi-parent success groups and
// failure edges, at Z = 3 on one worker — and renders every learned
// number as its IEEE-754 bits: the likelihood history, the prior, each
// p(w|z) row, each edge's per-topic probability (unpruned) and each
// trial's responsibilities (trials are the episodes that carry a
// reference; see Result.Responsibilities).
func goldenLines(t *testing.T) []string {
	g, _, log := synthetic(t, 80, 600, 42)
	_, vocabID := collectVocab(log)
	trials, err := extractTrials(g, log, vocabID, 1)
	if err != nil {
		t.Fatal(err)
	}
	var single, multi, fails int
	for i := range trials.count() {
		b := trials.bounds(i)
		k := len(b) - 3
		for gi := range k {
			if b[gi+1]-b[gi] == 1 {
				single++
			} else {
				multi++
			}
		}
		fails += int(b[k+1] - b[k])
	}
	if trials.count() <= 2*chunkTrials || single == 0 || multi == 0 || fails == 0 {
		t.Fatalf("golden world lost coverage: %d trials, %d one-parent and %d multi-parent groups, %d failures",
			trials.count(), single, multi, fails)
	}

	const Z = 3
	res, err := Learn(g, log, Config{Topics: Z, Seed: 7, Workers: 1, MinProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	km := res.Keywords
	out := []string{
		"ll " + goldenBits(res.LogLikelihood),
		"prior " + goldenBits(km.Prior()),
	}
	for z := 0; z < Z; z++ {
		row := make([]float64, km.VocabSize())
		for w := range row {
			row[w] = km.PWZ(z, w)
		}
		out = append(out, fmt.Sprintf("pwz%d %s", z, goldenBits(row)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		row := make([]float64, Z)
		for z := range row {
			row[z] = res.Propagation.TopicProb(graph.EdgeID(e), z)
		}
		out = append(out, fmt.Sprintf("pp%d %s", e, goldenBits(row)))
	}
	for i, r := range res.Responsibilities {
		out = append(out, fmt.Sprintf("resp%d %s", i, goldenBits(r)))
	}
	return out
}

// sameGoldenLine compares two rendered lines: bitwise on amd64, where
// the golden file was generated, and with a 1e-12 relative tolerance
// elsewhere (arm64 may fuse multiply-adds).
func sameGoldenLine(want, got string) bool {
	if want == got {
		return true
	}
	if runtime.GOARCH == "amd64" {
		return false
	}
	wk, wv, _ := strings.Cut(want, " ")
	gk, gv, _ := strings.Cut(got, " ")
	ws, gs := strings.Split(wv, ","), strings.Split(gv, ",")
	if wk != gk || len(ws) != len(gs) {
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
	return true
}

// TestGoldenLearn pins every bit EM learns on a fixed world to the
// checked-in file, so a change to how the E-step or M-step computes its
// sums (precomputed tables, layout, loop order) cannot move a single
// learned number. Regenerate only for an intended model change:
//
//	go test ./internal/em -run TestGoldenLearn -update
func TestGoldenLearn(t *testing.T) {
	got := goldenLines(t)
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
		t.Fatalf("%d golden lines, learner produced %d", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if !sameGoldenLine(want[i], got[i]) {
			if bad++; bad <= 10 {
				t.Errorf("line %d differs\nwant %s\ngot  %s", i+1, want[i], got[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines differ in all", bad)
	}
}

const citationDigestPath = "testdata/citation-2000.fnv"

// citationDigest learns datagen.Citation{Authors: 2000, Topics: 8,
// Seed: 1} — 4 000 trials in 16 E-step chunks over 12 497 edges, so
// several edge blocks — on the given worker count and returns the
// FNV-1a digest of the IEEE-754 bits of every learned number: the
// likelihood history, the prior, p(w|z), every edge's unpruned
// per-topic probability and every responsibility.
func citationDigest(t *testing.T, workers int) string {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 2000, Topics: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const Z = 8
	res, err := Learn(ds.Graph, ds.Log, Config{Topics: Z, Seed: 1, Workers: workers, MinProb: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(fs ...float64) {
		for _, f := range fs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	put(res.LogLikelihood...)
	km := res.Keywords
	put(km.Prior()...)
	for z := 0; z < Z; z++ {
		for w := 0; w < km.VocabSize(); w++ {
			put(km.PWZ(z, w))
		}
	}
	for e := 0; e < ds.Graph.NumEdges(); e++ {
		for z := 0; z < Z; z++ {
			put(res.Propagation.TopicProb(graph.EdgeID(e), z))
		}
	}
	for _, r := range res.Responsibilities {
		put(r...)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCitationDigest pins every bit EM learns on a benchmark-sized
// citation corpus, at several worker counts, to a digest recorded with
// the serial chunk merge. The world is amd64-only: other architectures
// may fuse multiply-adds, which moves low bits.
func TestCitationDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	raw, err := os.ReadFile(citationDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	workers := []int{1, 2, 3, 5, 16}
	if testing.Short() {
		workers = []int{2}
	}
	for _, w := range workers {
		if got := citationDigest(t, w); got != want {
			t.Errorf("workers=%d: digest %s, want %s", w, got, want)
		}
	}
}
