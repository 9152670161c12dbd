// Command octopus-bench runs the experiment suite E1–E20 defined in
// DESIGN.md §4 and prints one table per experiment — the reproduction of
// every figure/scenario of the OCTOPUS demo paper plus the engine claims
// it builds on (E13: streaming ingestion; E14: persistence and
// crash-recovery costs; E15: build-pipeline parallelism; E16: the
// query-serving layer — result cache, request coalescing and admission
// control under a Zipf-skewed closed-loop workload; E17: index-reusing
// snapshot folds — swap latency of a graph-unchanged delta with a
// query-level identity check against a full rebuild; E18: zero-copy mapped snapshot
// serving — cold-start-to-first-query, memory deltas and a mapped-vs-
// heap query identity check; E19: read-replica fleet — follower
// catch-up throughput, steady-state replication lag and leader query
// overhead with followers attached; E20: sharded scatter-gather
// serving — coordinator latency, merge overhead and per-shard corpus
// density across 1/2/4-shard fleets, with a 1-shard byte-identity
// gate). EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	octopus-bench [-quick] [-only E1,E4] [-seed N] [-json DIR]
//
// -quick shrinks dataset sizes for fast smoke runs. -json DIR
// additionally writes one BENCH_<id>.json per experiment: id, title,
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
	streamAuthors   int   // ingest-replay experiment dataset size
	streamBatch     int   // events per replayed ingest batch
	snapshotNodes   []int // cold-start experiment dataset sizes
	mmapNodes       []int // zero-copy serving experiment dataset sizes
	parAuthors      int   // build-parallelism experiment dataset size
	serveAuthors    int   // query-serving experiment dataset size
	serveClients    int   // closed-loop load-generator clients
	serveRequests   int   // requests per client per configuration
	servePool       int   // distinct queries in the Zipf-skewed pool
	foldAuthors     int   // index-reusing fold experiment dataset size
	replAuthors     int   // replication experiment dataset size
	replBacklog     int   // feed units (3 WAL records each) in the catch-up backlog
	replRounds      int   // steady-state lag measurement rounds
	replQueries     int   // leader queries per overhead window
	shardAuthors    int   // scatter-gather experiment dataset size
	shardFleets     []int // fleet sizes to compare (shard counts)
	shardQueries    int   // measured requests per fleet configuration
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
			snapshotNodes:   []int{1000, 2000},
			mmapNodes:       []int{2000},
			parAuthors:      700,
			serveAuthors:    800,
			serveClients:    4,
			serveRequests:   150,
			servePool:       64,
			foldAuthors:     3000,
			replAuthors:     800,
			replBacklog:     500,
			replRounds:      8,
			replQueries:     40,
			shardAuthors:    800,
			shardFleets:     []int{1, 2, 4},
			shardQueries:    40,
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
		snapshotNodes:   []int{3000, 8000},
		mmapNodes:       []int{8000, 20000},
		parAuthors:      2500,
		serveAuthors:    2500,
		serveClients:    8,
		serveRequests:   400,
		servePool:       128,
		foldAuthors:     4000,
		replAuthors:     2500,
		replBacklog:     2000,
		replRounds:      15,
		replQueries:     120,
		shardAuthors:    2500,
		shardFleets:     []int{1, 2, 4},
		shardQueries:    100,
	}
}

type experiment struct {
	id    string
	title string
	run   func(*env) error
}

func main() {
	quick := flag.Bool("quick", false, "use small datasets for a fast smoke run")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	seed := flag.Uint64("seed", 1, "base random seed")
	jsonDir := flag.String("json", "", "directory for per-experiment BENCH_<id>.json result records")
	flag.Parse()

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	e := &env{sizes: defaultSizes(*quick), seed: *seed, out: os.Stdout}
	experiments := []experiment{
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
		{"E14", "Persistence: snapshot cold-start speedup and WAL ingest overhead", runE14},
		{"E15", "Build/fold parallelism: pipeline speedup vs workers, determinism check", runE15},
		{"E16", "Query-serving layer: result cache, coalescing, admission control under Zipf load", runE16},
		{"E17", "Index-reusing snapshot folds: action-delta swap latency, identity vs full rebuild", runE17},
		{"E18", "Zero-copy snapshot serving: mapped vs heap cold-start-to-first-query, memory, identity", runE18},
		{"E19", "Read-replica fleet: snapshot shipping + WAL tailing — catch-up, lag, leader overhead", runE19},
		{"E20", "Sharded scatter-gather: coordinator latency, merge overhead, corpus density vs fleet size", runE20},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	fmt.Fprintf(e.out, "octopus-bench: quick=%v seed=%d started %s\n",
		*quick, *seed, time.Now().Format(time.RFC3339))
	failed := 0
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
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
