// Command octopus is the command-line tool of the OCTOPUS reproduction. It
// generates (or loads) a social network with action logs, builds the
// analysis system, and either serves the JSON HTTP API the d3 front end
// binds to, answers one keyword query in the terminal, or writes the
// built system as a snapshot or a shard fleet. The paper's three demo
// scenarios are walked in the terminal by `go run ./examples/quickstart`.
//
// Usage:
//
//	octopus serve [-addr :8080] [-load model.oct] [-mmap] [-mmap-warmup] [-ingest] [-wal DIR]
//	              [-follow http://leader:8080]
//	              [-coordinator -shard-addrs URL,URL,...] [-shard-timeout D] [-probe-interval D]
//	              [-rebuild-events N] [-rebuild-interval D]
//	              [-cache-entries N] [-max-inflight N] [-admin-addr 127.0.0.1:6060]
//	              [-slow-query D] [-trace-ring N] [-log-format text|json]
//	              [-slo-availability F] [-slo-p99 D] [-slo-staleness D]
//	              [-diag-dir DIR] [-diag-interval D]
//	              [-dataset citation|social] [-n N] [-topics Z] [-seed S] [-em] [-workers W]
//	octopus query [-q "data mining"] [-k 10] [-load model.oct] [-mmap] [same dataset flags]
//	octopus build [-o model.oct] [same dataset flags]   # build + binary snapshot (-em: learned models)
//	octopus split [-shards N] [-strategy hash|community] [-shard-dir shards/]
//	              [-load model.oct | same dataset flags] # partition into shard snapshots
//
// build serializes the complete built system (graph, action log,
// learned models, precomputed indexes, config) into one checksummed
// binary snapshot — the only persisted form of a learned model; serve
// and query accept it via -load and cold-start in milliseconds instead
// of re-running EM and data generation. Adding -mmap serves the
// snapshot in place: the file is memory-mapped read-only, the bulk
// arrays alias the mapped bytes instead of being copied onto the heap,
// and the action log decodes lazily on first use — cold start is
// bounded by validation, and memory is shared page cache other
// processes mapping the same file reuse. Query results are identical
// either way. OCTOPUS_MMAP=off forces the copying path. Adding
// -mmap-warmup prefaults the mapping at open (madvise + one touch per
// page), moving the page-fault cost off the first queries. -mmap
// without -load, and -mmap-warmup without -mmap, are errors.
//
// # Sharded serving
//
// split partitions a corpus into N shard snapshots (internal/shard:
// global node-id space, edges owned by their source, actions by their
// acting user) under -shard-dir. Each shard file is an ordinary
// snapshot: `octopus serve -load shards/shard-0-of-2.oct -mmap` serves
// one shard.
//
// serve -coordinator -shard-addrs=http://h1:8081,http://h2:8082 runs
// the scatter-gather tier instead of a local engine: a user read
// (suggest, keywords, forward paths) goes to the shard that lists the
// user at /api/owners and a radar to one live shard, while every other
// query fans out to the live shards (bounded by -shard-timeout per
// shard) and the answers are merged — IM seeds by summed per-shard
// marginal gains,
// completions by max weight, status by summing — through the same
// cache/coalesce/admission shell, so a 1-shard coordinator answers
// byte-identically to the process behind it. A background prober (-probe-interval) detects dead and
// recovered shards; missing shards degrade /api/health and stamp
// partial answers with X-Octopus-Shards-Missing (never cached).
//
// -workers bounds the parallelism of the offline build pipeline (EM +
// index precomputation) and of streaming fold rebuilds; for a fixed
// seed the built system is identical at every setting, 0 uses all
// cores.
//
// With -ingest, serve wraps the system in the streaming subsystem: the
// /api/ingest endpoints accept live actions/edges and the serving
// snapshot is rebuilt and atomically swapped after every N events (or D
// of staleness) without taking queries offline. A swap whose delta
// leaves the graph unchanged (items and actions only) reuses the
// precomputed indexes and pays only the log-derived structures; a delta
// that touches the graph rebuilds them. Adding -wal DIR makes
// ingestion durable: accepted events are written ahead to DIR/wal.log,
// every swap checkpoints DIR/snapshot.oct, and a restarted serve -wal
// recovers automatically: it loads the checkpoint, replays the WAL tail
// through the live ingester and folds it, checkpointing the next
// version before it listens. SIGINT/SIGTERM trigger a graceful
// shutdown: the HTTP server drains, then the ingester folds and
// checkpoints one final time.
//
// With -follow, serve runs as a read replica of another octopus serve
// -ingest -wal instance. It mirrors the leader's checkpoints: it
// long-polls GET /api/replicate?what=status, and whenever the leader's
// checkpoint version moves it downloads that snapshot into its own -wal
// DIR (resuming partial downloads), maps it in place (zero-copy, like
// -load -mmap) and swaps it in. The replica never folds and never sees
// the leader's WAL: a checkpoint version names one file, byte for byte,
// so at equal versions replica and leader serve identical answers. The
// replica serves the same read API; ingest endpoints answer 403 (writes
// go to the leader), /api/health stays degraded with a replication_lag
// reason until it has caught up, and a restarted replica maps its local
// copy without re-downloading while the leader has not checkpointed
// since. Leader loss is retried with backoff forever; a leader that
// restarts from crash recovery is just another checkpoint to mirror.
//
// serve maps its flags onto a server.Deployment and opens it with
// server.Open, which refuses illegal flag combinations (see also
// checkServe) before it builds anything or binds a port.
//
// serve always runs the query-serving layer: a generation-tagged result
// cache (-cache-entries, invalidated implicitly by snapshot swaps),
// request coalescing, and admission control (-max-inflight; excess
// requests are shed with 429 + Retry-After). GET /api/metrics reports
// per-endpoint latency quantiles and cache/shed counters; POST
// /api/batch answers many queries in one round trip.
//
// Observability: GET /metrics serves the Prometheus text exposition,
// every response carries an X-Octopus-Trace id resolvable at GET
// /api/debug/traces, -slow-query D logs slower requests with their
// span breakdown, and -admin-addr binds a separate operator listener
// with net/http/pprof. serve logs are structured (-log-format json for
// machine ingestion).
//
// Every query endpoint answers ?explain=1 with a per-stage engine cost
// breakdown (bound hits, samples mixed, nodes walked). GET /api/health
// reports ready|degraded|failing from multi-window SLO burn rates over
// the -slo-* objectives; with -diag-dir, a crossed burn threshold
// auto-captures a rate-limited diagnostics bundle (profiles, traces,
// metrics) listed at GET /api/debug/diag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/obs"
	"octopus/internal/server"
	"octopus/internal/shard"
	"octopus/internal/store"
)

type options struct {
	dataset string
	n       int
	topics  int
	seed    uint64
	useEM   bool
	workers int
	addr    string
	query   string
	k       int
	load    string
	mmap    bool
	warmup  bool
	snapOut string

	shards        int
	strategy      string
	shardDir      string
	coordinator   bool
	shardAddrs    string
	shardTimeout  time.Duration
	probeInterval time.Duration

	ingest          bool
	walDir          string
	follow          string
	rebuildEvents   int
	rebuildInterval time.Duration

	cacheEntries int
	maxInflight  int

	adminAddr string
	slowQuery time.Duration
	traceRing int
	logFormat string

	diagDir         string
	diagInterval    time.Duration
	sloAvailability float64
	sloP99          time.Duration
	sloStaleness    time.Duration
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	opt, err := parseFlags(cmd, os.Args[2:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag package has printed the error and the flag list
	}

	switch cmd {
	case "serve":
		if err := serveMain(opt); err != nil {
			log.Fatal(err)
		}
	case "query":
		run(opt, oneShot)
	case "build":
		run(opt, buildSnapshot)
	case "split":
		run(opt, splitFleet)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: octopus <serve|query|build|split> [flags]")
}

// parseFlags parses one subcommand's flags. Every subcommand shares the
// flag set; each flag's help names the commands it applies to.
func parseFlags(cmd string, args []string) (options, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	opt := options{}
	fs.StringVar(&opt.dataset, "dataset", "citation", "citation or social")
	fs.IntVar(&opt.n, "n", 3000, "number of users/authors")
	fs.IntVar(&opt.topics, "topics", 8, "number of topics")
	fs.Uint64Var(&opt.seed, "seed", 1, "random seed")
	fs.BoolVar(&opt.useEM, "em", false, "learn the model from logs with EM instead of adopting ground truth")
	fs.IntVar(&opt.workers, "workers", 0, "build parallelism for EM + index construction and fold rebuilds (0 = all cores, 1 = serial; same result either way)")
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address (serve)")
	fs.StringVar(&opt.query, "q", "data mining", "keyword query (query)")
	fs.IntVar(&opt.k, "k", 10, "seed count (query)")
	fs.StringVar(&opt.load, "load", "", "load a binary system snapshot instead of generating + building")
	fs.BoolVar(&opt.mmap, "mmap", false, "with -load: serve the snapshot zero-copy via mmap instead of decoding it onto the heap (OCTOPUS_MMAP=off forces the copying path)")
	fs.BoolVar(&opt.warmup, "mmap-warmup", false, "with -load -mmap: prefault the mapping at open (madvise + touch every page), moving page-fault latency off the first queries")
	fs.StringVar(&opt.snapOut, "o", "model.oct", "snapshot output path (build)")
	fs.IntVar(&opt.shards, "shards", 2, "number of shards to partition into (split)")
	fs.StringVar(&opt.strategy, "strategy", "hash", "partition strategy: "+strings.Join(shard.Strategies(), " or ")+" (split)")
	fs.StringVar(&opt.shardDir, "shard-dir", "shards", "output directory for shard snapshots (split)")
	fs.BoolVar(&opt.coordinator, "coordinator", false, "serve as a scatter-gather coordinator over -shard-addrs instead of a local engine (serve)")
	fs.StringVar(&opt.shardAddrs, "shard-addrs", "", "comma-separated shard base URLs for -coordinator, in shard order (serve)")
	fs.DurationVar(&opt.shardTimeout, "shard-timeout", 5*time.Second, "per-shard fan-out bound; a slower shard is treated as missing for that request (serve -coordinator)")
	fs.DurationVar(&opt.probeInterval, "probe-interval", 2*time.Second, "background shard health-probe cadence (serve -coordinator)")
	fs.BoolVar(&opt.ingest, "ingest", false, "enable streaming ingestion endpoints (serve)")
	fs.StringVar(&opt.walDir, "wal", "", "durability directory for serve -ingest: WAL + checkpoint snapshots, with crash recovery on start (with -follow: where the replica keeps its mirrored checkpoint)")
	fs.StringVar(&opt.follow, "follow", "", "serve as a read replica of the leader at this base URL; requires -wal DIR, conflicts with -ingest and -load (serve)")
	fs.IntVar(&opt.rebuildEvents, "rebuild-events", 4096, "fold the ingest overlay into a new snapshot after this many events (serve -ingest)")
	fs.DurationVar(&opt.rebuildInterval, "rebuild-interval", 30*time.Second, "also fold when pending events are older than this; 0 disables (serve -ingest)")
	fs.IntVar(&opt.cacheEntries, "cache-entries", server.DefaultCacheEntries, "result-cache entries, invalidated per snapshot generation; negative disables the cache (serve)")
	fs.IntVar(&opt.maxInflight, "max-inflight", 4*runtime.GOMAXPROCS(0), "concurrent query-engine bound; excess requests get 429 + Retry-After, 0 = unlimited (serve)")
	fs.StringVar(&opt.adminAddr, "admin-addr", "", "optional operator listener for pprof + /metrics + /api/debug/traces; keep it loopback or firewalled, e.g. 127.0.0.1:6060 (serve)")
	fs.DurationVar(&opt.slowQuery, "slow-query", 0, "log requests slower than this with their span breakdown; 0 disables (serve)")
	fs.IntVar(&opt.traceRing, "trace-ring", 0, "recent request traces kept for /api/debug/traces; 0 = default, negative disables tracing (serve)")
	fs.StringVar(&opt.logFormat, "log-format", "text", "structured log encoding: text or json (serve)")
	fs.StringVar(&opt.diagDir, "diag-dir", "", "directory for auto-captured diagnostics bundles when an SLO burn threshold is crossed; empty disables the watchdog (serve)")
	fs.DurationVar(&opt.diagInterval, "diag-interval", 10*time.Minute, "minimum interval between diagnostics bundles (serve)")
	fs.Float64Var(&opt.sloAvailability, "slo-availability", 0.99, "availability objective: target fraction of non-error responses (serve)")
	fs.DurationVar(&opt.sloP99, "slo-p99", 2*time.Second, "latency objective: requests slower than this count against the p99 budget (serve)")
	fs.DurationVar(&opt.sloStaleness, "slo-staleness", 0, "ingest-staleness objective for serve -ingest; 0 disables (serve)")
	err := fs.Parse(args)
	return opt, err
}

// splitFleet partitions the full system into shard snapshots — the
// exchange format a shard server boots from with serve -load.
func splitFleet(opt options, sys *core.System) error {
	strat, err := shard.ParseStrategy(opt.strategy, opt.seed)
	if err != nil {
		return err
	}
	start := time.Now()
	paths, err := shard.WriteFleet(opt.shardDir, sys, strat, opt.shards)
	if err != nil {
		return err
	}
	for k, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		fmt.Printf("shard %d/%d: %s (%.1f MiB)\n", k, opt.shards, p, float64(fi.Size())/(1<<20))
	}
	fmt.Printf("split %d shards (%s strategy) in %s\n",
		opt.shards, strat.Name(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("serve one with:  octopus serve -load %s -mmap\n", paths[0])
	fmt.Println("then coordinate: octopus serve -coordinator -shard-addrs=http://h0:8081,...")
	return nil
}

// buildSnapshot persists the complete built system as one binary
// snapshot for -load.
func buildSnapshot(opt options, sys *core.System) error {
	start := time.Now()
	if err := store.Save(opt.snapOut, sys); err != nil {
		return err
	}
	fi, err := os.Stat(opt.snapOut)
	if err != nil {
		return err
	}
	st := sys.Stats()
	fmt.Printf("wrote %s: %.1f MiB in %s (%d nodes, %d edges, %d topics, %d keywords)\n",
		opt.snapOut, float64(fi.Size())/(1<<20), time.Since(start).Round(time.Millisecond),
		st.Nodes, st.Edges, st.Topics, st.Vocabulary)
	fmt.Printf("cold-start it with: octopus serve -load %s\n", opt.snapOut)
	return nil
}

func run(opt options, fn func(options, *core.System) error) {
	if err := checkLoad(opt); err != nil {
		log.Fatal(err)
	}
	sys, mapped, err := buildSystem(opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn(opt, sys); err != nil {
		log.Fatal(err)
	}
	if mapped != nil {
		mapped.Close()
	}
}

func buildSystem(opt options) (*core.System, *store.Mapped, error) {
	if opt.load != "" {
		start := time.Now()
		if opt.mmap {
			sys, mapped, err := store.Map(opt.load, store.MapOptions{Warmup: opt.warmup})
			if err != nil {
				return nil, nil, err
			}
			// sys.Stats() is cheap here too (it never decodes the deferred
			// log), but the mapping's own stats say how the file is served.
			ms := mapped.Stats()
			fmt.Fprintf(os.Stderr, "mapped snapshot %s in %s: %s, %.1f MiB (%.1f MiB prefaulted), %d nodes, %d edges, %d copy fallbacks\n",
				opt.load, time.Since(start).Round(time.Millisecond), ms.Backing,
				float64(ms.FileSize)/(1<<20), float64(ms.WarmedBytes)/(1<<20),
				sys.Graph().NumNodes(), sys.Graph().NumEdges(), ms.CopyFallbacks)
			return sys, mapped, nil
		}
		sys, err := store.Load(opt.load)
		if err != nil {
			return nil, nil, err
		}
		st := sys.Stats()
		fmt.Fprintf(os.Stderr, "loaded snapshot %s in %s: %d nodes, %d edges, %d topics, %d keywords\n",
			opt.load, time.Since(start).Round(time.Millisecond), st.Nodes, st.Edges, st.Topics, st.Vocabulary)
		return sys, nil, nil
	}
	var ds *datagen.Dataset
	var err error
	fmt.Fprintf(os.Stderr, "generating %s dataset (n=%d, Z=%d, seed=%d)...\n",
		opt.dataset, opt.n, opt.topics, opt.seed)
	switch opt.dataset {
	case "citation":
		ds, err = datagen.Citation(datagen.CitationConfig{
			Authors: opt.n, Topics: opt.topics, Seed: opt.seed,
		})
	case "social":
		ds, err = datagen.Social(datagen.SocialConfig{
			Users: opt.n, Topics: opt.topics, Seed: opt.seed,
		})
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", opt.dataset)
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{
		TopicNames: ds.TopicNames,
		Seed:       opt.seed,
		Workers:    opt.workers,
	}
	if opt.useEM {
		cfg.Topics = opt.topics
		fmt.Fprintln(os.Stderr, "learning model from action logs with EM...")
	} else {
		cfg.GroundTruth = ds.Truth
		cfg.GroundTruthWords = ds.TruthWords
	}
	fmt.Fprintln(os.Stderr, "building indexes...")
	sys, err := core.Build(ds.Graph, ds.Log, cfg)
	if err != nil {
		return nil, nil, err
	}
	st := sys.Stats()
	fmt.Fprintf(os.Stderr, "ready: %d nodes, %d edges, %d topics, %d keywords, %d polls\n",
		st.Nodes, st.Edges, st.Topics, st.Vocabulary, st.InfluencerPolls)
	return sys, nil, nil
}

// checkLoad rejects snapshot flags that would otherwise be ignored.
func checkLoad(opt options) error {
	switch {
	case opt.warmup && !opt.mmap:
		return errors.New("-mmap-warmup prefaults a mapping; it requires -mmap")
	case opt.mmap && opt.load == "":
		return errors.New("-mmap maps a snapshot file; it requires -load")
	}
	return nil
}

// checkServe refuses the serve flag combinations that involve the
// local-corpus flags, which a Deployment does not see; Open refuses the
// rest (Deployment.Check). Both run before anything is built,
// recovered, fetched or bound.
func checkServe(opt options) error {
	switch {
	case opt.coordinator && opt.load != "":
		return errors.New("serve -coordinator has no local corpus; drop -ingest/-wal/-follow/-load")
	case opt.follow != "" && opt.load != "":
		return errors.New("serve -follow bootstraps from the leader's snapshot; drop -load")
	}
	return checkLoad(opt)
}

// serveMain is serve's one path: check the flags, open the deployment
// they describe, and serve it until SIGINT/SIGTERM.
func serveMain(opt options) error {
	if err := checkServe(opt); err != nil {
		return err
	}
	logger := newLogger(opt)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	node, err := server.Open(ctx, deployment(opt, logger))
	if err != nil {
		return err
	}
	// Report the effective settings (0 cache entries means the default
	// size; only a negative value disables the cache).
	cacheDesc := fmt.Sprint(opt.cacheEntries)
	if opt.cacheEntries == 0 {
		cacheDesc = fmt.Sprint(server.DefaultCacheEntries)
	} else if opt.cacheEntries < 0 {
		cacheDesc = "off"
	}
	logger.Info("listening", slog.String("addr", opt.addr), slog.String("mode", node.Mode))
	logger.Info("serving layer", slog.String("cacheEntries", cacheDesc),
		slog.Int("maxInflight", opt.maxInflight),
		slog.Duration("slowQuery", opt.slowQuery))
	return runHTTP(ctx, opt, logger, node)
}

// deployment maps the serve flags onto the deployment Open assembles.
// The local system comes from buildSystem, the load/generate path every
// subcommand shares.
func deployment(opt options, logger *slog.Logger) server.Deployment {
	var addrs []string
	for _, a := range strings.Split(opt.shardAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return server.Deployment{
		Server: server.Options{
			CacheEntries: opt.cacheEntries,
			MaxInflight:  opt.maxInflight,
			TraceRing:    opt.traceRing,
			SlowQuery:    opt.slowQuery,
			Logger:       logger,
			SLO: obs.SLOConfig{
				Availability:  opt.sloAvailability,
				LatencyTarget: opt.sloP99,
				Staleness:     opt.sloStaleness,
			},
			DiagDir:         opt.diagDir,
			DiagMinInterval: opt.diagInterval,
		},
		Coordinator: opt.coordinator,
		ShardAddrs:  addrs,
		CoordinatorOptions: server.CoordinatorOptions{
			ShardTimeout:  opt.shardTimeout,
			ProbeInterval: opt.probeInterval,
		},
		Follow:          opt.follow,
		Dir:             opt.walDir,
		Ingest:          opt.ingest,
		RebuildEvents:   opt.rebuildEvents,
		RebuildInterval: opt.rebuildInterval,
		Workers:         opt.workers,
		Base:            func() (*core.System, *store.Mapped, error) { return buildSystem(opt) },
	}
}

// newLogger builds the serve path's structured logger.
func newLogger(opt options) *slog.Logger {
	if opt.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// runHTTP serves node on opt.addr with hardened timeouts and the
// optional admin listener, until ctx ends or the listener fails. On
// shutdown the HTTP server drains in-flight requests (bounded), then the
// node closes: its source (the live ingester's final fold and
// checkpoint, or the follower), then the snapshot mapping it aliases.
func runHTTP(ctx context.Context, opt options, logger *slog.Logger, node *server.Node) error {
	httpSrv := &http.Server{
		Addr:    opt.addr,
		Handler: node.Server,
		// Never rely on the zero-value (unbounded) timeouts: slowloris
		// headers and stuck request bodies must not pin connections.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The operator surface gets its own listener so pprof and raw metric
	// dumps are never exposed on the public port by accident.
	var adminSrv *http.Server
	if opt.adminAddr != "" {
		adminSrv = &http.Server{
			Addr:              opt.adminAddr,
			Handler:           node.Server.AdminHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			logger.Info("admin listening", slog.String("addr", opt.adminAddr))
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin server", slog.Any("error", err))
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		_ = node.Close()
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if adminSrv != nil {
			_ = adminSrv.Shutdown(shutdownCtx)
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("http shutdown", slog.Any("error", err))
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("http server", slog.Any("error", err))
		}
		return node.Close()
	}
}

func oneShot(opt options, sys *core.System) error {
	tok := actionlog.Tokenizer{}
	keywords := tok.Tokenize(opt.query)
	res, err := sys.DiscoverInfluencers(keywords, core.DiscoverOptions{K: opt.k})
	if err != nil {
		return err
	}
	fmt.Printf("\nInfluential users for %q (γ top topics: %s)\n",
		strings.Join(keywords, " "), gammaString(sys, res))
	for i, s := range res.Seeds {
		fmt.Printf("  %2d. %-24s σ=%8.2f  aspect: %s\n", i+1, s.Name, s.Spread, s.TopTopicName)
	}
	fmt.Printf("  [engine: %d exact evals, %d pruned users]\n",
		res.Stats.ExactEvals, res.Stats.Pruned)
	return nil
}

func gammaString(sys *core.System, res *core.DiscoverResult) string {
	var parts []string
	for _, z := range res.Gamma.Top(2) {
		parts = append(parts, fmt.Sprintf("%s %.2f", sys.Keywords().TopicName(z), res.Gamma[z]))
	}
	return strings.Join(parts, ", ")
}
