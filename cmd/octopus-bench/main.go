// Command octopus-bench runs the in-process experiment suite and prints
// one table per experiment. E1–E12 reproduce the scenarios and engine
// claims of the OCTOPUS demo paper (keyword IM, keyword suggestion, path
// exploration, OTIM bound pruning, topic samples, the influencer index,
// MIA and EM) and the substrate they build on; E13–E15 cover streaming
// ingestion, the WAL's ingest overhead and build parallelism; E19 covers
// the read-replica fleet, which no benchmark workload measures yet.
// Snapshot load against a full rebuild is not timed here: it is the
// benchmark's store.load_ms / store.map_ms against em.learn_s +
// otim.build_s.
//
// These are printed tables, not evidence: the repo's performance ledger
// is benchmark/ (see benchmark/README.md), which times real `octopus
// serve` binaries per workload and per layer. An experiment here fails
// only on its own correctness checks and coarse bars.
//
// Usage:
//
//	octopus-bench [-quick] [-only E1,E4] [-seed N] [-json DIR]
//
// -quick shrinks dataset sizes for fast smoke runs. -only runs the named
// experiments; an id that is not in the suite is an error (exit 2). -json
// DIR additionally writes one BENCH_<id>.json per experiment: id, title,
// wall time, the runtime-observability delta over the run (allocation,
// GC cycles and pause time, goroutines) and any numbers the experiment
// chose to record — so a changed result can be read together with the
// runtime context that produced it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"octopus/internal/bench"
)

type sizes struct {
	citationAuthors int
	citationPapers  int
	socialUsers     int
	smallAuthors    int // for exhaustive-baseline experiments
	scaleNodes      []int
	emEpisodes      []int
	queryReps       int
	streamAuthors   int // ingest-replay experiment dataset size
	streamBatch     int // events per replayed ingest batch
	parAuthors      int // build-parallelism experiment dataset size
	replAuthors     int // replication experiment dataset size
	replRounds      int // leader folds the follower lag is measured over
	replQueries     int // leader queries per overhead window
}

func defaultSizes(quick bool) sizes {
	if quick {
		return sizes{
			citationAuthors: 1500,
			citationPapers:  2000,
			socialUsers:     3000,
			smallAuthors:    400,
			scaleNodes:      []int{1000, 2000, 4000},
			emEpisodes:      []int{500, 1500},
			queryReps:       5,
			streamAuthors:   800,
			streamBatch:     128,
			parAuthors:      700,
			replAuthors:     800,
			replRounds:      8,
			replQueries:     40,
		}
	}
	return sizes{
		citationAuthors: 8000,
		citationPapers:  12000,
		socialUsers:     20000,
		smallAuthors:    1200,
		scaleNodes:      []int{5000, 20000, 60000},
		emEpisodes:      []int{1000, 4000, 12000},
		queryReps:       10,
		streamAuthors:   3000,
		streamBatch:     256,
		parAuthors:      2500,
		replAuthors:     2500,
		replRounds:      15,
		replQueries:     120,
	}
}

type experiment struct {
	id    string
	title string
	run   func(*env) error
}

var experiments = []experiment{
	{"E1", "Keyword-based influential user discovery (Scenario 1 / Fig. 1)", runE1},
	{"E2", "Personalized influential keyword suggestion (Scenario 2 / Fig. 1)", runE2},
	{"E3", "Interactive influential path exploration (Scenario 3 / Fig. 1)", runE3},
	{"E4", "Online best-effort vs naive per-query IM (II-C latency claim)", runE4},
	{"E5", "Bound pruning effectiveness (OTIM ablation)", runE5},
	{"E6", "Topic-sample index: hit rate and speedup", runE6},
	{"E7", "Keyword suggestion quality vs exhaustive and baselines", runE7},
	{"E8", "Influencer index: lazy sampling and query speedup", runE8},
	{"E9", "MIA threshold trade-off: size, latency, accuracy", runE9},
	{"E10", "Substrate scalability: cascades, RR sets, IMM vs n", runE10},
	{"E11", "EM model learning: parameter recovery vs episodes", runE11},
	{"E12", "Classical IM baselines at equal k (sanity shape)", runE12},
	{"E13", "Streaming ingestion: replay throughput, swap latency, staleness", runE13},
	{"E14", "Persistence: WAL ingest overhead", runE14},
	{"E15", "Build/fold parallelism: pipeline speedup vs workers, determinism check", runE15},
	{"E19", "Read-replica fleet: checkpoint mirroring — bootstrap, per-fold lag, leader overhead", runE19},
}

// selectExperiments returns the experiments named in only (comma-separated,
// case-insensitive), in suite order, or all of them when only is empty. An
// id that is not in the suite is an error naming the known ids.
func selectExperiments(only string) ([]experiment, error) {
	if strings.TrimSpace(only) == "" {
		return experiments, nil
	}
	known := make([]string, len(experiments))
	for i, ex := range experiments {
		known[i] = ex.id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment id %q (known: %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	var picked []experiment
	for _, ex := range experiments {
		if want[ex.id] {
			picked = append(picked, ex)
		}
	}
	return picked, nil
}

func main() {
	quick := flag.Bool("quick", false, "use small datasets for a fast smoke run")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	seed := flag.Uint64("seed", 1, "base random seed")
	jsonDir := flag.String("json", "", "directory for per-experiment BENCH_<id>.json result records")
	flag.Parse()

	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "octopus-bench:", err)
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	e := &env{sizes: defaultSizes(*quick), seed: *seed, out: os.Stdout}

	fmt.Fprintf(e.out, "octopus-bench: quick=%v seed=%d started %s\n",
		*quick, *seed, time.Now().Format(time.RFC3339))
	failed := 0
	for _, ex := range selected {
		fmt.Fprintf(e.out, "\n######## %s — %s\n", ex.id, ex.title)
		e.extras = map[string]any{}
		before := bench.ReadObs()
		start := time.Now()
		err := ex.run(e)
		elapsed := time.Since(start)
		delta := bench.Delta(before, bench.ReadObs())
		if err != nil {
			failed++
			fmt.Fprintf(e.out, "%s FAILED: %v\n", ex.id, err)
		} else {
			fmt.Fprintf(e.out, "[%s completed in %s]\n", ex.id, elapsed.Round(time.Millisecond))
		}
		if *jsonDir != "" {
			writeRecord(*jsonDir, ex, *quick, *seed, err, delta, e.extras)
		}
	}
	if failed > 0 {
		fmt.Fprintf(e.out, "\n%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

// benchRecord is the schema of one BENCH_<id>.json file.
type benchRecord struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Quick   bool           `json:"quick"`
	Seed    uint64         `json:"seed"`
	OK      bool           `json:"ok"`
	Error   string         `json:"error,omitempty"`
	Obs     bench.ObsDelta `json:"obs"`
	Results map[string]any `json:"results,omitempty"`
}

func writeRecord(dir string, ex experiment, quick bool, seed uint64, runErr error, delta bench.ObsDelta, extras map[string]any) {
	rec := benchRecord{
		ID: ex.id, Title: ex.title, Quick: quick, Seed: seed,
		OK: runErr == nil, Obs: delta, Results: extras,
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "BENCH_"+ex.id+".json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s record: %v\n", ex.id, err)
	}
}
