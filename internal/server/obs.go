// obs.go is the server's observability surface: the Prometheus text
// exposition at GET /metrics, the recent-request trace ring at GET
// /api/debug/traces, and the operator-only admin mux (pprof) returned
// by AdminHandler. The JSON statistics endpoint GET /api/metrics is
// unchanged by all of this — /metrics is the machine-scrapable view of
// the same counters plus the pipeline instruments the JSON never
// carried (fold stage timings, WAL latencies, Go runtime state).
package server

import (
	"errors"
	"net/http"
	"net/http/pprof"
	"strconv"

	"octopus/internal/core"
	"octopus/internal/obs"
)

// DefaultTraceRing bounds the recent-trace ring when Options.TraceRing
// is left zero.
const DefaultTraceRing = 256

// maxTraceDump bounds one /api/debug/traces response.
const maxTraceDump = 1000

// newRegistry assembles the server's metric registry: Go runtime
// state, the per-endpoint serving counters/histograms (the same data
// /api/metrics reports as JSON), serving-layer gauges, and — on a live
// server — the ingestion pipeline and durability instruments.
func (s *Server) newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Register(obs.RuntimeCollector())
	reg.Register(s.metrics)
	reg.Register(s.costs)
	reg.RegisterFunc(s.collectServing)
	reg.RegisterFunc(s.collectSLO)
	if s.live != nil {
		reg.RegisterFunc(s.collectLive)
	}
	if s.replSrc != nil || s.follower != nil {
		reg.RegisterFunc(s.collectRepl)
	}
	return reg
}

// collectRepl emits the octopus_repl_* instruments: source counters on
// a leader shipping its checkpoints, mirror state on a replica.
func (s *Server) collectRepl(w *obs.MetricWriter) {
	if s.replSrc != nil {
		st := s.replSrc.Stats()
		w.Counter("octopus_repl_status_requests_total", "Status handshakes and long-polls served to followers.", float64(st.StatusRequests))
		w.Counter("octopus_repl_snapshot_requests_total", "Snapshot downloads served to followers.", float64(st.SnapshotRequests))
	}
	if s.follower != nil {
		st := s.follower.Stats()
		w.Gauge("octopus_repl_follower_ready", "1 once the replica has served the leader's latest checkpoint at least once.", boolGauge(st.Ready))
		w.Gauge("octopus_repl_follower_caught_up", "1 while the replica serves the leader's latest checkpoint.", boolGauge(st.CaughtUp))
		w.Gauge("octopus_repl_follower_lag_seconds", "Time the replica has known it is behind the leader (0 while caught up).", st.LagMillis/1e3)
		w.Gauge("octopus_repl_follower_version", "Checkpoint version the replica serves.", float64(st.Version))
		w.Counter("octopus_repl_follower_reconnects_total", "Leader requests retried after an error.", float64(st.Reconnects))
		w.Counter("octopus_repl_follower_snapshot_fetches_total", "Snapshot downloads performed.", float64(st.SnapshotFetches))
		w.Counter("octopus_repl_follower_snapshot_bytes_total", "Snapshot bytes downloaded.", float64(st.SnapshotBytes))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// collectSLO emits the burn-rate gauges behind /api/health: per
// objective and window, the bad-event fraction and its burn rate, plus
// the overall state as a 0/1/2 gauge (ready/degraded/failing).
func (s *Server) collectSLO(w *obs.MetricWriter) {
	rep := s.slo.Report(s.staleness())
	state := 0.0
	switch rep.State {
	case obs.StateDegraded:
		state = 1
	case obs.StateFailing:
		state = 2
	}
	w.Gauge("octopus_slo_state", "SLO state: 0 ready, 1 degraded, 2 failing.", state)
	for _, o := range rep.Objectives {
		for _, win := range o.Windows {
			l := []string{"objective", o.Name, "window", win.Window}
			w.Gauge("octopus_slo_bad_fraction", "Bad-event fraction over the window, by objective.", win.Value, l...)
			w.Gauge("octopus_slo_burn_rate", "Error-budget burn rate over the window, by objective.", win.BurnRate, l...)
		}
	}
	if s.watchdog != nil {
		w.Gauge("octopus_diag_bundles", "Diagnostics bundles captured so far.", float64(len(s.watchdog.List())))
	}
}

// collectServing emits the serving-layer gauges: pinned generation,
// cache occupancy, admission gate state.
func (s *Server) collectServing(w *obs.MetricWriter) {
	w.Gauge("octopus_snapshot_generation", "Generation of the snapshot queries pin.", float64(s.generation()))
	if s.storeStats != nil {
		st := s.storeStats()
		mapped := 0.0
		if st.MappedBytes > 0 {
			mapped = 1
		}
		w.Gauge("octopus_store_mmap", "1 when the snapshot file is served zero-copy via mmap.", mapped)
		w.Gauge("octopus_store_snapshot_bytes", "Size of the snapshot file being served.", float64(st.FileSize))
		w.Gauge("octopus_store_mapped_bytes", "Bytes of the snapshot currently memory-mapped.", float64(st.MappedBytes))
		if st.ResidentBytes >= 0 {
			w.Gauge("octopus_store_resident_bytes", "Mapped snapshot bytes resident in memory (mincore estimate).", float64(st.ResidentBytes))
		}
		w.Gauge("octopus_store_copy_fallbacks", "Arrays copied to the heap despite a mapped open (alignment or platform).", float64(st.CopyFallbacks))
	}
	if s.cache != nil {
		w.Gauge("octopus_cache_entries", "Entries in the result cache.", float64(s.cache.Len()))
	}
	w.Gauge("octopus_inflight_queries", "Query engines running right now.", float64(s.gate.InFlight()))
	w.Gauge("octopus_inflight_capacity", "Admission gate capacity (0 = unbounded).", float64(s.gate.Capacity()))
	if s.tracer != nil {
		w.Gauge("octopus_trace_ring_size", "Capacity of the recent-trace ring.", float64(s.tracer.RingSize()))
	}
	if s.coord == nil {
		engines, calcs := core.ScratchCreated()
		const help = "Per-query scratch values built (otim engines, MIA path calculators); warm free lists keep this flat."
		w.Counter("octopus_query_scratch_created_total", help, float64(engines), "kind", "otim")
		w.Counter("octopus_query_scratch_created_total", help, float64(calcs), "kind", "mia")
	} else {
		for _, sh := range s.coord.health() {
			up := 0.0
			if sh.Up {
				up = 1
			}
			l := []string{"shard", strconv.Itoa(sh.Index)}
			w.Gauge("octopus_shard_up", "1 when the shard answered its last probe or fan-out call.", up, l...)
			w.Gauge("octopus_shard_generation", "Last snapshot generation the shard reported.", float64(sh.Generation), l...)
		}
	}
}

// collectLive emits the ingestion-pipeline and durability instruments
// of a live server's LiveSystem.
func (s *Server) collectLive(w *obs.MetricWriter) {
	ls := s.live
	st := ls.Stats()
	w.Counter("octopus_ingest_events_total", "Events accepted into the ingest buffer.", float64(st.Accepted), "outcome", "accepted")
	w.Counter("octopus_ingest_events_total", "Events accepted into the ingest buffer.", float64(st.Dropped), "outcome", "dropped")
	w.Counter("octopus_ingest_events_total", "Events accepted into the ingest buffer.", float64(st.Invalid), "outcome", "invalid")
	w.Counter("octopus_ingest_events_total", "Events accepted into the ingest buffer.", float64(st.Duplicates), "outcome", "duplicate")
	w.Counter("octopus_ingest_applied_total", "Events applied to the overlay.", float64(st.Applied))
	w.Gauge("octopus_ingest_buffer_depth", "Events waiting in the bounded ingest buffer.", float64(st.Buffered))
	w.Gauge("octopus_ingest_pending_events", "Events applied to the overlay but not yet folded.", float64(st.Pending))
	w.Gauge("octopus_ingest_staleness_seconds", "Age of the oldest event not yet visible in a snapshot.", st.StalenessMillis/1e3)
	w.Gauge("octopus_overlay_nodes", "Nodes in the current graph.", float64(st.Nodes))
	w.Gauge("octopus_overlay_edges", "Edges in the current graph.", float64(st.Edges))

	w.Counter("octopus_folds_total", "Snapshot folds by maintenance path.", float64(st.IncrementalFolds), "path", "incremental")
	fullFolds := float64(st.Snapshots) - float64(st.IncrementalFolds)
	if fullFolds < 0 {
		fullFolds = 0
	}
	w.Counter("octopus_folds_total", "Snapshot folds by maintenance path.", fullFolds, "path", "full")
	w.Counter("octopus_fold_fallbacks_total", "Incremental folds that fell back to a full rebuild.", float64(st.FoldFallbacks))
	w.Counter("octopus_fold_failures_total", "Folds that failed and will be retried.", float64(st.FoldFailures))
	w.Gauge("octopus_fold_stage_seconds", "Per-stage duration of the last fold.", st.LastFoldModelMillis/1e3, "stage", "model")
	w.Gauge("octopus_fold_stage_seconds", "Per-stage duration of the last fold.", st.LastFoldOTIMMillis/1e3, "stage", "otim")
	w.Gauge("octopus_fold_stage_seconds", "Per-stage duration of the last fold.", st.LastFoldTagsMillis/1e3, "stage", "tags")
	w.Gauge("octopus_fold_stage_seconds", "Per-stage duration of the last fold.", st.LastFoldDerivedMillis/1e3, "stage", "derived")
	w.Counter("octopus_fold_swap_seconds_total", "Cumulative off-hot-path rebuild time.", st.TotalSwapMillis/1e3)

	if st.Durable {
		w.Counter("octopus_wal_records_total", "Records appended to the write-ahead log.", float64(st.WALRecords))
		w.Counter("octopus_wal_syncs_total", "Group-commit fsync batches.", float64(st.WALSyncs))
		w.Counter("octopus_wal_errors_total", "WAL or checkpoint failures.", float64(st.WALErrors))
		w.Gauge("octopus_wal_bytes", "Bytes in the current WAL segment.", float64(st.WALBytes))
		w.Counter("octopus_checkpoints_total", "Snapshot checkpoints written.", float64(st.Checkpoints))
		if d := ls.Store(); d != nil {
			w.Histogram("octopus_wal_append_duration_seconds", "WAL record append latency.", d.WALAppendLatency().Snapshot())
			w.Histogram("octopus_wal_fsync_duration_seconds", "WAL fsync latency.", d.WALSyncLatency().Snapshot())
			w.Histogram("octopus_checkpoint_duration_seconds", "Checkpoint (snapshot write + WAL rotate) duration.", d.CheckpointLatency().Snapshot())
			w.Gauge("octopus_checkpoint_last_bytes", "Size of the most recent checkpoint snapshot.", float64(d.LastCheckpointBytes()))
		}
	}
}

// handlePromMetrics serves the registry in Prometheus text exposition
// format 0.0.4 — the scrape target. /api/metrics stays the JSON view.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.registry.WritePrometheus(w)
}

type tracesResponse struct {
	Traces []obs.Trace `json:"traces"`
}

// handleTraces dumps the most recent completed request traces, newest
// first. ?n= bounds the dump (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := params(r)
	n := q.Int("n", 50)
	if q.bad(w) {
		return
	}
	if n < 0 {
		writeErr(w, http.StatusBadRequest, errors.New("parameter \"n\": must be non-negative"))
		return
	}
	if n > maxTraceDump {
		n = maxTraceDump
	}
	resp := tracesResponse{Traces: []obs.Trace{}}
	if s.tracer != nil {
		resp.Traces = s.tracer.Recent(n)
	}
	writeJSON(w, http.StatusOK, resp)
}

// AdminHandler returns the operator-only surface: net/http/pprof under
// /debug/pprof/, plus the same /metrics and /api/debug/traces routes
// the public mux serves, so one scrape config covers either port. It
// is intentionally NOT part of ServeHTTP — bind it to a loopback or
// otherwise protected listener (cmd/octopus serve -admin-addr).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", allow(http.MethodGet, s.handlePromMetrics))
	mux.HandleFunc("/api/health", allow(http.MethodGet, s.handleHealth))
	mux.HandleFunc("/api/debug/traces", allow(http.MethodGet, s.handleTraces))
	mux.HandleFunc("/api/debug/diag", allow(http.MethodGet, s.handleDiag))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeErr(w, http.StatusNotFound, errors.New("unknown admin route"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("octopus admin surface\n\n" +
			"  /debug/pprof/       profiler index\n" +
			"  /metrics            Prometheus exposition\n" +
			"  /api/health         SLO burn-rate state (JSON)\n" +
			"  /api/debug/traces   recent request traces (JSON)\n" +
			"  /api/debug/diag     captured diagnostics bundles (JSON)\n"))
	})
	return mux
}
