// Command octopus is the demo driver for the OCTOPUS reproduction. It
// generates (or loads) a social network with action logs, builds the
// analysis system, and either walks through the paper's three demo
// scenarios in the terminal or serves the JSON HTTP API the d3 front end
// binds to.
//
// Usage:
//
//	octopus demo  [-dataset citation|social] [-n N] [-topics Z] [-seed S] [-em] [-workers W]
//	octopus serve [-addr :8080] [-load model.oct] [-mmap] [-mmap-warmup] [-ingest] [-wal DIR]
//	              [-follow http://leader:8080]
//	              [-coordinator -shard-addrs URL,URL,...] [-shard-timeout D] [-probe-interval D]
//	              [-rebuild-events N] [-rebuild-interval D]
//	              [-cache-entries N] [-max-inflight N] [-admin-addr 127.0.0.1:6060]
//	              [-slow-query D] [-trace-ring N] [-log-format text|json]
//	              [-slo-availability F] [-slo-p99 D] [-slo-staleness D]
//	              [-diag-dir DIR] [-diag-interval D]
//	              [same dataset flags]
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
// serve refuses illegal flag combinations (see checkServe) before it
// builds anything or binds a port.
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
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/repl"
	"octopus/internal/server"
	"octopus/internal/shard"
	"octopus/internal/store"
	"octopus/internal/stream"
	"octopus/internal/tags"
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
	case "demo":
		run(opt, demo)
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
	fmt.Fprintln(os.Stderr, "usage: octopus <demo|serve|query|build|split> [flags]")
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

// checkServe rejects every illegal serve flag combination, before
// anything is built, recovered, fetched or bound.
func checkServe(opt options) error {
	switch {
	case opt.coordinator && opt.shardAddrs == "":
		return errors.New("serve -coordinator requires -shard-addrs=URL,URL,...")
	case opt.coordinator && (opt.ingest || opt.walDir != "" || opt.follow != "" || opt.load != ""):
		return errors.New("serve -coordinator has no local corpus; drop -ingest/-wal/-follow/-load")
	case opt.follow != "" && opt.ingest:
		return errors.New("serve -follow is read-only; -ingest belongs on the leader")
	case opt.follow != "" && opt.walDir == "":
		return errors.New("serve -follow requires -wal DIR for the replica's local state")
	case opt.follow != "" && opt.load != "":
		return errors.New("serve -follow bootstraps from the leader's snapshot; drop -load")
	case opt.walDir != "" && !opt.ingest && opt.follow == "":
		return errors.New("serve -wal requires -ingest")
	}
	return checkLoad(opt)
}

// serveMain is serve's one path: check the flags, pick the source, build
// the server, and serve it until SIGINT/SIGTERM. Shutdown drains HTTP
// first, then closes the source (the live ingester's final fold and
// checkpoint, or the follower), then the snapshot mapping it aliases.
func serveMain(opt options) error {
	if err := checkServe(opt); err != nil {
		return err
	}
	logger := newLogger(opt)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	src, err := openSource(ctx, opt, logger)
	if err != nil {
		return err
	}
	srvOpt := serverOptions(opt, logger)
	if src.mapped != nil {
		// Deferred here, so the owning reference drops only after runHTTP
		// has drained the HTTP server and closed the source: late
		// in-flight requests never touch unmapped memory. Folded
		// generations hold their own retained references via the
		// snapshot backing chain.
		defer src.mapped.Close()
		srvOpt.StoreStats = src.mapped.Stats
	}
	var srv *server.Server
	if opt.coordinator {
		var addrs []string
		for _, a := range strings.Split(opt.shardAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		srv, err = server.NewCoordinator(addrs, srvOpt, server.CoordinatorOptions{
			ShardTimeout:  opt.shardTimeout,
			ProbeInterval: opt.probeInterval,
		})
		if err != nil {
			return err
		}
	} else {
		srv = server.NewWith(src.sys, srvOpt)
	}
	// Report the effective settings (0 cache entries means the default
	// size; only a negative value disables the cache).
	cacheDesc := fmt.Sprint(opt.cacheEntries)
	if opt.cacheEntries == 0 {
		cacheDesc = fmt.Sprint(server.DefaultCacheEntries)
	} else if opt.cacheEntries < 0 {
		cacheDesc = "off"
	}
	logger.Info("listening", slog.String("addr", opt.addr), slog.String("mode", src.mode))
	logger.Info("serving layer", slog.String("cacheEntries", cacheDesc),
		slog.Int("maxInflight", opt.maxInflight),
		slog.Duration("slowQuery", opt.slowQuery))
	return runHTTP(ctx, opt, logger, srv, src.close)
}

// source is what one serve process answers from, and what it must
// release once its HTTP server has drained.
type source struct {
	sys    server.Source // nil on a coordinator: its engine is remote
	mode   string        // coordinator, replica, static or live
	mapped *store.Mapped // the snapshot mapping sys aliases, if any
	close  func() error  // stops the live ingester or the follower
}

// openSource picks what serve answers from: nothing local for a
// coordinator; the leader's mirrored checkpoints for -follow; otherwise
// the checkpoint found in -wal, loaded or built, wrapped live under
// -ingest (which replays and folds the checkpoint's WAL tail). A -wal
// directory that already holds state wins over both -load and dataset
// generation.
func openSource(ctx context.Context, opt options, logger *slog.Logger) (source, error) {
	src := source{close: func() error { return nil }}
	switch {
	case opt.coordinator:
		src.mode = "coordinator"
		return src, nil
	case opt.follow != "":
		logger.Info("bootstrapping replica",
			slog.String("leader", opt.follow), slog.String("dir", opt.walDir))
		f, err := repl.Start(ctx, repl.Config{Leader: opt.follow, Dir: opt.walDir, Logger: logger})
		if err != nil {
			return src, err
		}
		src.sys, src.mode = f, "replica"
		src.close = func() error {
			logger.Info("stopping replication", slog.Uint64("version", f.Version()))
			return f.Close()
		}
		return src, nil
	}
	var dir *store.Dir
	var sys *core.System
	var recovered *store.RecoverResult
	if opt.walDir != "" {
		var err error
		if dir, recovered, err = store.Open(opt.walDir); err != nil {
			return src, err
		}
		if recovered != nil {
			sys = recovered.Sys
		}
	}
	if sys == nil {
		var err error
		if sys, src.mapped, err = buildSystem(opt); err != nil {
			return src, err
		}
	}
	if !opt.ingest {
		src.sys, src.mode = sys, "static"
		return src, nil
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{
		RebuildEvents:   opt.rebuildEvents,
		RebuildInterval: opt.rebuildInterval,
		Workers:         opt.workers,
		IncrementalFold: true,
		Store:           dir,
		Logger:          logger,
	})
	if err != nil {
		return src, err
	}
	if recovered != nil {
		st := ls.Stats()
		fmt.Fprintf(os.Stderr, "recovered from %s: snapshot v%d + %d WAL events (%d nodes, %d edges)\n",
			opt.walDir, recovered.SnapshotVersion, recovered.Tail, st.Nodes, st.Edges)
	}
	src.sys, src.mode = ls, "live"
	src.close = func() error {
		if err := ls.Close(); err != nil {
			return fmt.Errorf("closing ingester: %w", err)
		}
		if dir != nil {
			logger.Info("final checkpoint",
				slog.Uint64("version", dir.LastCheckpointVersion()),
				slog.String("dir", dir.Path()))
		}
		return nil
	}
	return src, nil
}

// newLogger builds the serve path's structured logger.
func newLogger(opt options) *slog.Logger {
	if opt.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// serverOptions assembles the serving-layer options shared by every
// serve mode.
func serverOptions(opt options, logger *slog.Logger) server.Options {
	return server.Options{
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
	}
}

// runHTTP serves srv on opt.addr with hardened timeouts and the
// optional admin listener, until ctx ends or the listener fails. On
// shutdown the HTTP server drains in-flight requests (bounded), then
// drain runs — closing whatever subsystem feeds the server.
func runHTTP(ctx context.Context, opt options, logger *slog.Logger, srv *server.Server, drain func() error) error {
	httpSrv := &http.Server{
		Addr:    opt.addr,
		Handler: srv,
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
			Handler:           srv.AdminHandler(),
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
		srv.Close()
		_ = drain()
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		srv.Close()
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
		return drain()
	}
}

func oneShot(opt options, sys *core.System) error {
	tok := actionlog.Tokenizer{}
	keywords := tok.Tokenize(opt.query)
	res, err := sys.DiscoverInfluencers(keywords, core.DiscoverOptions{K: opt.k})
	if err != nil {
		return err
	}
	printIM(sys, keywords, res)
	return nil
}

func printIM(sys *core.System, keywords []string, res *core.DiscoverResult) {
	fmt.Printf("\nInfluential users for %q (γ top topics: %s)\n",
		strings.Join(keywords, " "), gammaString(sys, res))
	for i, s := range res.Seeds {
		fmt.Printf("  %2d. %-24s σ=%8.2f  aspect: %s\n", i+1, s.Name, s.Spread, s.TopTopicName)
	}
	fmt.Printf("  [engine: %d exact evals, %d pruned users]\n",
		res.Stats.ExactEvals, res.Stats.Pruned)
}

func gammaString(sys *core.System, res *core.DiscoverResult) string {
	var parts []string
	for _, z := range res.Gamma.Top(2) {
		parts = append(parts, fmt.Sprintf("%s %.2f", sys.Keywords().TopicName(z), res.Gamma[z]))
	}
	return strings.Join(parts, ", ")
}

// demo walks the three demonstration scenarios of Section III.
func demo(opt options, sys *core.System) error {
	fmt.Println("==================================================================")
	fmt.Println(" OCTOPUS demo — three scenarios from the ICDE 2018 demonstration")
	fmt.Println("==================================================================")

	// ---- Scenario 1: keyword-based influential user discovery.
	fmt.Println("\n--- Scenario 1: Keyword-Based Influential User Discovery ---")
	q1 := []string{"mining", "pattern"}
	if opt.dataset == "social" {
		q1 = []string{"game"}
	}
	res, err := sys.DiscoverInfluencers(q1, core.DiscoverOptions{K: 8})
	if err != nil {
		return err
	}
	printIM(sys, q1, res)

	// ---- Scenario 2: influential keyword suggestion for a target user.
	fmt.Println("\n--- Scenario 2: Influential Keywords Suggestion ---")
	target := pickTarget(sys)
	if target < 0 {
		fmt.Println("  (no keyword-rich user found)")
	} else {
		name := sys.Graph().Name(target)
		// Auto-completion in action.
		pre := name[:min(3, len(name))]
		comps := sys.Complete(pre, 3)
		fmt.Printf("  typing %q → completions: ", pre)
		for i, c := range comps {
			if i > 0 {
				fmt.Print("; ")
			}
			fmt.Print(c.Key)
		}
		fmt.Println()
		sug, err := sys.SuggestKeywords(target, 3, tags.SuggestOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("  selling points of %s: %v (est. σ=%.2f)\n", name, sug.Keywords, sug.Spread)
		if len(sug.Keywords) > 0 {
			radar, err := sys.Radar(sug.Keywords[0])
			if err == nil {
				fmt.Printf("  radar for %q:\n", sug.Keywords[0])
				for z, v := range radar.Values {
					fmt.Printf("    %-22s %s %.3f\n", radar.Topics[z], bar(v, 40), v)
				}
			}
		}
	}

	// ---- Scenario 3: interactive influential path exploration.
	fmt.Println("\n--- Scenario 3: Interactive Influential Path Exploration ---")
	hub := hubNode(sys)
	pg, err := sys.InfluencePaths(hub, core.PathOptions{Theta: 0.01, MaxNodes: 40})
	if err != nil {
		return err
	}
	fmt.Printf("  how %s influences the community (θ=%.2g, %d nodes, σ=%.2f):\n",
		sys.Graph().Name(hub), pg.Theta, len(pg.Nodes), pg.Spread)
	printTree(sys, pg)
	if len(pg.Nodes) > 1 {
		clicked := pg.Nodes[len(pg.Nodes)-1].ID
		path, err := sys.HighlightPath(pg, clicked)
		if err == nil {
			fmt.Printf("  clicking %q highlights: ", sys.Graph().Name(clicked))
			for i, u := range path {
				if i > 0 {
					fmt.Print(" → ")
				}
				fmt.Print(sys.Graph().Name(u))
			}
			fmt.Println()
		}
	}
	return nil
}

func pickTarget(sys *core.System) graph.NodeID {
	best, bestDeg := graph.NodeID(-1), -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if len(sys.UserKeywords(graph.NodeID(u))) >= 4 {
			if d := sys.Graph().OutDegree(graph.NodeID(u)); d > bestDeg {
				best, bestDeg = graph.NodeID(u), d
			}
		}
	}
	return best
}

func hubNode(sys *core.System) graph.NodeID {
	best, bestDeg := graph.NodeID(0), -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if d := sys.Graph().OutDegree(graph.NodeID(u)); d > bestDeg {
			best, bestDeg = graph.NodeID(u), d
		}
	}
	return best
}

func printTree(sys *core.System, pg *core.PathGraph) {
	shown := 0
	for _, n := range pg.Nodes {
		if shown >= 12 {
			fmt.Printf("    … and %d more nodes\n", len(pg.Nodes)-shown)
			break
		}
		indent := strings.Repeat("  ", int(n.Depth))
		fmt.Printf("    %s%s (ap=%.3f, effect=%.2f)\n", indent, sys.Graph().Name(n.ID), n.Prob, n.Size)
		shown++
	}
}

func bar(v float64, width int) string {
	n := int(v * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("░", width-n)
}
