// Package server exposes the OCTOPUS analysis services over a JSON HTTP
// API — the backend the demo's d3js interface (Figure 1) binds to. Each
// endpoint returns exactly the payload a UI widget renders: seed lists
// for the influential-user table, keyword suggestions and radar data for
// the selling-points panel, and node/link graphs for the influential-path
// visualization.
//
//	GET  /api/status                         system statistics
//	GET  /api/im?q=data+mining&k=10          keyword-based IM (Scenario 1)
//	GET  /api/suggest?user=NAME&k=3          keyword suggestion (Scenario 2)
//	GET  /api/keywords?user=NAME&limit=20    ranked user keywords
//	GET  /api/radar?keyword=W                radar diagram data
//	GET  /api/paths?user=NAME&theta=0.01     influential paths (Scenario 3)
//	GET  /api/complete?prefix=P&k=10         user-name auto-completion
//	GET  /api/owners                         user keys this process holds data for
//	POST /api/im/targeted                    targeted IM over an audience (JSON body)
//	POST /api/batch                          many queries in one round trip (JSON body)
//	GET  /api/metrics                        serving-layer statistics (JSON)
//	GET  /api/health                         SLO state (ready | degraded | failing)
//	GET  /metrics                            Prometheus text exposition
//	GET  /api/debug/traces?n=50              recent request traces, newest first
//	GET  /api/debug/diag                     captured diagnostics bundles
//
// Open (deploy.go) puts every serving shape — static, live, durable
// live, replica, coordinator — together from one Deployment.
//
// A Server over a *stream.LiveSystem additionally accepts streaming
// events (the live-ingestion subsystem of internal/stream):
//
//	POST /api/ingest/actions                 new items + actions (JSON body)
//	POST /api/ingest/edges                   new follow edges (JSON body)
//	GET  /api/ingest/stats                   ingestion pipeline statistics
//
// A durable live Server (one whose LiveSystem has a store) additionally
// ships its checkpoints to read replicas:
//
//	GET  /api/replicate?what=status          checkpoint handshake (&after=V&wait_ms=W long-polls)
//	GET  /api/replicate?what=snapshot        the checkpoint file, Range-resumable (internal/repl)
//
// A Server over a *repl.Follower is a read replica: the
// same read endpoints, answered from the leader's latest checkpoint as
// the follower maps it — same version, same bytes, so a replica and its
// leader answer identically at equal generations. Ingest endpoints
// return 403 (writes go to the leader); /api/ingest/stats reports the
// served version, the mapping and the follower's counters; /api/health
// reports degraded with a replication_lag reason until the follower has
// caught up, and the follower's lag is its staleness.
//
// # Query serving
//
// Every query request pins one immutable (snapshot, generation) pair up
// front and is answered entirely from it. The read endpoints flow
// through the query-serving layer (internal/qcache): responses are
// cached in a bounded LRU keyed by (endpoint, normalized parameters)
// and tagged with the pinned generation, so a snapshot swap
// invalidates every cached answer implicitly; concurrent identical
// misses coalesce into one engine run; and an optional admission gate
// sheds work with 429 + Retry-After instead of queueing unboundedly.
// POST /api/im/targeted takes the same path without the cache (a body
// is outside the key space): it is uncached and admission-controlled
// on every engine, a coordinator's included. Responses carry
// X-Octopus-Generation (the pinned generation) and X-Octopus-Cache
// (hit | miss | stale | coalesced | shed | bypass). Cached and
// freshly computed responses are byte-identical for the same
// generation. GET /api/metrics reports per-endpoint counts, latency
// quantiles, cache hit/miss/stale and shed counters.
//
// Requests with the wrong method are rejected with 405 and an Allow
// header; malformed numeric query parameters (?k=ten, ?theta=0..5) are
// rejected with 400 and an error payload naming the parameter. Ingest
// endpoints return 503 when the bounded ingest buffer is full (retry
// with backoff), 404 on a static (non-live) server, and 403 on a
// read-only replica.
//
// # Observability
//
// Every response carries X-Octopus-Trace: a per-request trace (under
// the id the request arrived with, when well-formed — a coordinator
// forwards its own to every shard) follows the serving layers (cache,
// coalesce, gate, engine spans) with the pinned generation and cache
// outcome attached, lands in a bounded
// ring served at /api/debug/traces, and — past Options.SlowQuery — is
// logged as a structured slow-query record. /metrics exposes the
// serving counters plus ingest/fold/WAL/runtime instruments in
// Prometheus text format; AdminHandler returns the operator-only
// pprof surface for a separate listener. See obs.go.
//
// Every read endpoint accepts ?explain=1: the response is wrapped as
// {"result":...,"cost":...} with the engine's per-stage cost counters
// (bound checks, exact evaluations, nodes and edges walked, samples
// mixed), a compact X-Octopus-Cost header summarizes them, and the
// same counters feed per-endpoint cost histograms on /metrics and the
// engine span in /api/debug/traces. A request carrying
// X-Octopus-Want-Cost gets the X-Octopus-Cost header beside its plain
// body instead; a coordinator asks its shards that way. GET
// /api/health reports the SLO burn-rate state; a configured
// diagnostics directory turns burn crossings into rate-limited capture
// bundles. See cost.go, health.go.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/qcache"
	"octopus/internal/repl"
	"octopus/internal/store"
	"octopus/internal/stream"
	"octopus/internal/tags"
)

// DefaultCacheEntries bounds the result cache when Options.CacheEntries
// is left zero.
const DefaultCacheEntries = 4096

// Options tunes the query-serving layer of a Server.
type Options struct {
	// QueryTimeout bounds each analysis request (default 10s).
	QueryTimeout time.Duration
	// CacheEntries bounds the result cache (default DefaultCacheEntries;
	// negative disables caching entirely).
	CacheEntries int
	// MaxInflight bounds concurrently running query engines; excess
	// requests are shed with 429 + Retry-After instead of queueing.
	// 0 (default) admits everything.
	MaxInflight int
	// TraceRing bounds the in-memory ring of recent request traces
	// served at /api/debug/traces (default DefaultTraceRing; negative
	// disables tracing entirely, removing the per-request span
	// bookkeeping from the hot path).
	TraceRing int
	// SlowQuery, when positive, logs every request slower than this
	// threshold as a structured slow-query record with its span
	// breakdown.
	SlowQuery time.Duration
	// Logger receives the server's structured log records (slow
	// queries, diagnostics captures). nil discards them.
	Logger *slog.Logger
	// SLO configures the burn-rate tracker behind GET /api/health.
	// The zero value uses the obs.SLOConfig defaults (99% availability,
	// 2s p99, 5m/1h windows, burn threshold 2).
	SLO obs.SLOConfig
	// DiagDir, when set, enables the diagnostics watchdog: a burn
	// threshold crossing captures a bundle (goroutine + heap profiles,
	// recent traces, registry dump) into this directory, listed at GET
	// /api/debug/diag.
	DiagDir string
	// DiagMinInterval rate-limits bundle captures (default 10m).
	DiagMinInterval time.Duration
}

func (o *Options) fill() {
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = DefaultCacheEntries
	}
	if o.TraceRing == 0 {
		o.TraceRing = DefaultTraceRing
	}
}

// queryHandler is a read handler bound to a pinned snapshot: it must
// answer entirely from sys, never re-resolving the live system, so the
// response is a pure function of (sys, request) — the property the
// result cache's bit-identical guarantee rests on. These handlers are
// the local engine's endpoint implementations; the serving layer
// reaches them only through an engineView (see engine.go).
type queryHandler func(sys *core.System, w http.ResponseWriter, r *http.Request)

// Server exposes the analysis services (and optionally live ingestion)
// over HTTP.
type Server struct {
	// engine pins the view a request is answered from — a (snapshot,
	// generation) pair on a local server, a fleet roster on a
	// coordinator. Handlers must never re-resolve state mid-request:
	// the cache's byte-identical guarantee rests on the single pin. The
	// release callback (never nil) must be called exactly once, when the
	// request is done with the view: on a live server over a mapped
	// snapshot it holds the pin that keeps a swapped-out generation's
	// mapping from being unmapped mid-query.
	engine     engine
	coord      *fleet             // non-nil only on a coordinator
	live       *stream.LiveSystem // nil on a static or replica server
	follower   *repl.Follower     // non-nil only on a replica server
	replSrc    *repl.Source       // non-nil only on a durable leader
	storeStats func() store.MapStats
	mux        *http.ServeMux
	// queryTimeout bounds each analysis request (Options.QueryTimeout).
	queryTimeout time.Duration

	cache         *qcache.Cache // nil when caching is disabled
	flight        qcache.Flight
	genHdr        atomic.Pointer[genValue] // the latest X-Octopus-Generation value
	gate          *qcache.Gate
	metrics       *qcache.Metrics
	queryHandlers map[string]queryHandler // local engine endpoints; batch dispatch table

	tracer   *obs.Tracer   // nil when tracing is disabled
	registry *obs.Registry // Prometheus exposition at /metrics
	costs    *costMetrics  // per-endpoint query-cost distributions
	slo      *obs.SLOTracker
	watchdog *obs.Watchdog // nil when no DiagDir is configured

	closeOnce sync.Once
	done      chan struct{}
}

// Source is what a local Server answers from. Acquire pins one
// immutable (system, generation) pair and returns it with a release
// callback (never nil) that the request calls exactly once, when it is
// done with the system. A *core.System (one generation, nothing to
// pin), a *stream.LiveSystem and a *repl.Follower (the current
// snapshot, pinned so a swap cannot unmap it mid-query) are sources.
type Source interface {
	Acquire() (*core.System, uint64, func())
}

// NewWith creates a Server over a local source with explicit serving
// options (the zero Options are the defaults). Cache entries are tagged
// with the generation each request pins, so a snapshot swap implicitly
// invalidates the whole cache; a static system's entries never go
// stale. The source's type decides what else the server offers:
//
//   - *stream.LiveSystem: the ingest endpoints and, when the live
//     system is durable, the /api/replicate checkpoint source.
//   - *repl.Follower: a read-only replica. Ingest endpoints answer 403
//     (writes go to the leader), /api/health refuses to report ready
//     until the follower has caught up at least once, the replication
//     lag feeds the staleness objective so a stalled replica degrades
//     like a stalled leader, and the follower's mapping is reported
//     like a mapped static system's (see newLocal).
func NewWith(src Source, opt Options) *Server { return newLocal(src, opt, nil) }

// newLocal is NewWith over a source whose system aliases the snapshot
// mapping m (nil: none). How the file is backed (mmap vs heap, resident
// bytes, copy fallbacks) is surfaced on /api/ingest/stats, as
// octopus_store_* gauges on /metrics, and in diagnostics bundles.
func newLocal(src Source, opt Options, m *store.Mapped) *Server {
	s := &Server{}
	if m != nil {
		s.storeStats = m.Stats
	}
	switch src := src.(type) {
	case *stream.LiveSystem:
		s.live = src
		if src.Store() != nil {
			if rs, err := repl.NewSource(src); err == nil {
				s.replSrc = rs
			}
		}
	case *repl.Follower:
		s.follower, s.storeStats = src, src.MapStats
	}
	s.engine = &localEngine{s: s, src: src}
	return s.assemble(opt)
}

// assemble builds the serving shell every constructor shares — cache,
// coalescing, admission, metrics, tracing, SLO, watchdog — around the
// engine and capabilities the constructor set, and mounts the routes.
func (s *Server) assemble(opt Options) *Server {
	opt.fill()
	s.mux = http.NewServeMux()
	s.queryTimeout = opt.QueryTimeout
	s.gate = qcache.NewGate(opt.MaxInflight)
	s.metrics = qcache.NewMetrics()
	s.queryHandlers = make(map[string]queryHandler)
	s.costs = newCostMetrics()
	s.slo = obs.NewSLOTracker(opt.SLO)
	s.watchdog = obs.NewWatchdog(opt.DiagDir, opt.DiagMinInterval, opt.Logger)
	s.done = make(chan struct{})
	if opt.CacheEntries > 0 {
		s.cache = qcache.New(opt.CacheEntries)
	}
	if opt.TraceRing > 0 {
		s.tracer = obs.NewTracer(opt.TraceRing, opt.SlowQuery, opt.Logger)
	}
	s.registry = s.newRegistry()
	if s.watchdog != nil {
		if s.storeStats != nil {
			s.watchdog.SetMeta(func() map[string]any {
				return map[string]any{"store": s.storeStats()}
			})
		}
		go s.watchLoop()
	}
	for _, q := range []struct {
		name string
		h    queryHandler
	}{
		{"im", s.handleIM},
		{"suggest", s.handleSuggest},
		{"keywords", s.handleKeywords},
		{"radar", s.handleRadar},
		{"paths", s.handlePaths},
		{"complete", s.handleComplete},
	} {
		s.queryHandlers[q.name] = q.h
		s.mux.HandleFunc("/api/"+q.name,
			s.instrument(q.name, allow(http.MethodGet, s.query(q.name, s.cache))))
	}
	s.queryHandlers["targeted"] = s.handleTargeted
	s.mux.HandleFunc("/api/im/targeted", s.instrument("targeted", allow(http.MethodPost, s.query("targeted", nil))))
	s.mux.HandleFunc("/api/status", s.instrument("status", allow(http.MethodGet, s.pinned(engineView.Status))))
	s.mux.HandleFunc("/api/owners", s.instrument("owners", allow(http.MethodGet, s.pinned(engineView.Owners))))
	s.mux.HandleFunc("/api/metrics", s.instrument("metrics", allow(http.MethodGet, s.handleMetrics)))
	s.mux.HandleFunc("/api/batch", s.instrument("batch", allow(http.MethodPost, s.handleBatch)))
	s.mux.HandleFunc("/api/ingest/actions", s.instrument("ingest/actions", allow(http.MethodPost, s.handleIngestActions)))
	s.mux.HandleFunc("/api/ingest/edges", s.instrument("ingest/edges", allow(http.MethodPost, s.handleIngestEdges)))
	s.mux.HandleFunc("/api/ingest/stats", s.instrument("ingest/stats", allow(http.MethodGet, s.handleIngestStats)))
	// /api/replicate bypasses instrument: status requests long-poll for
	// seconds by design, which would poison the latency SLO, the trace
	// ring and the per-endpoint quantiles. The Source keeps its own
	// counters (octopus_repl_* on /metrics).
	if s.replSrc != nil {
		s.mux.Handle(repl.ReplicatePath, s.replSrc)
	} else {
		s.mux.HandleFunc(repl.ReplicatePath, func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusNotFound,
				errors.New("replication not enabled: this server has no durable store to ship"))
		})
	}
	s.mux.HandleFunc("/metrics", s.instrument("prom", allow(http.MethodGet, s.handlePromMetrics)))
	s.mux.HandleFunc("/api/health", s.instrument("health", allow(http.MethodGet, s.handleHealth)))
	s.mux.HandleFunc("/api/debug/traces", s.instrument("debug/traces", allow(http.MethodGet, s.handleTraces)))
	s.mux.HandleFunc("/api/debug/diag", s.instrument("debug/diag", allow(http.MethodGet, s.handleDiag)))
	s.mux.HandleFunc("/", s.handleUI)
	return s
}

// pinned adapts a view-bound handler to an uncached route: pin once,
// stamp the generation header, run.
func (s *Server) pinned(h func(v engineView, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, gen, rel := s.engine.Acquire()
		defer rel()
		sw := servingState(w)
		sw.gen, sw.pinned = gen, true
		sw.Header()[generationHeader] = s.genHeader(gen)
		h(v, sw, r)
	}
}

// generation pins and releases a view just to read the generation —
// for surfaces (health, metrics) that report it without querying.
func (s *Server) generation() uint64 {
	_, gen, rel := s.engine.Acquire()
	rel()
	return gen
}

// allow guards a handler with a single accepted method (GET handlers
// also accept HEAD), answering anything else with 405 + Allow.
func allow(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			writeErr(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed; use %s", r.Method, method))
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorPayload struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorPayload{Error: err.Error()})
}

// qparams reads typed query parameters, remembering the first malformed
// value. Handlers parse everything up front and reject the request with
// 400 via bad() — a typo like ?k=ten or ?theta=0..5 must fail loudly,
// not silently fall back to the default. The query string is parsed
// once, not per read.
type qparams struct {
	q   url.Values
	err error
}

func params(r *http.Request) *qparams { return &qparams{q: r.URL.Query()} }

func (q *qparams) fail(name, kind, v string) {
	if q.err == nil {
		q.err = fmt.Errorf("parameter %q: invalid %s value %q", name, kind, v)
	}
}

func (q *qparams) Int(name string, def int) int {
	v := q.q.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		q.fail(name, "integer", v)
		return def
	}
	return n
}

// Flag reads a boolean flag parameter: absent or "0" is false, "1" is
// true, anything else is malformed (rejected via bad()).
func (q *qparams) Flag(name string) bool {
	switch v := q.q.Get(name); v {
	case "", "0":
		return false
	case "1":
		return true
	default:
		q.fail(name, "flag", v)
		return false
	}
}

// Float reads a finite number: NaN and ±Inf parse but are malformed.
func (q *qparams) Float(name string, def float64) float64 {
	v := q.q.Get(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		q.fail(name, "number", v)
		return def
	}
	return f
}

// bad reports any malformed parameter as a 400 and tells the handler to
// stop.
func (q *qparams) bad(w http.ResponseWriter) bool {
	if q.err == nil {
		return false
	}
	writeErr(w, http.StatusBadRequest, q.err)
	return true
}

func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.queryTimeout)
}

type imResponse struct {
	Query   []string       `json:"query"`
	Unknown []string       `json:"unknown,omitempty"`
	Gamma   []float64      `json:"gamma"`
	Topics  []string       `json:"topics"`
	Seeds   []imSeed       `json:"seeds"`
	Stats   map[string]any `json:"stats"`
}

type imSeed struct {
	ID     int32   `json:"id"`
	Name   string  `json:"name"`
	Spread float64 `json:"spread"`
	Aspect string  `json:"aspect"`
}

func (s *Server) handleIM(sys *core.System, w http.ResponseWriter, r *http.Request) {
	tok := actionlog.Tokenizer{}
	keywords := tok.Tokenize(r.URL.Query().Get("q"))
	if len(keywords) == 0 {
		writeErr(w, http.StatusBadRequest, errMissing("q"))
		return
	}
	q := params(r)
	k := q.Int("k", 10)
	if k <= 0 {
		// core reads K == 0 as its default of 10: an explicit k must be
		// a seed count.
		q.fail("k", "positive integer", q.q.Get("k"))
	}
	theta := q.Float("theta", 0.01)
	if q.bad(w) {
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	res, err := sys.DiscoverInfluencers(keywords, core.DiscoverOptions{
		K:       k,
		Theta:   theta,
		Context: ctx,
		Cost:    costFrom(r),
	})
	if err != nil {
		// A query stopped by its deadline (or a departed client) has no
		// answer: 503, which the serving layer never caches.
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, newIMResponse(sys, keywords, res))
}

// newIMResponse shapes a DiscoverResult for the UI.
func newIMResponse(sys *core.System, keywords []string, res *core.DiscoverResult) imResponse {
	return imResponse{
		Query:   keywords,
		Unknown: res.UnknownWords,
		Gamma:   res.Gamma,
		Topics:  topicNames(sys),
		Seeds:   imSeeds(res.Seeds),
		Stats: map[string]any{
			"exactEvals":  res.Stats.ExactEvals,
			"localBounds": res.Stats.LocalBounds,
			"pruned":      res.Stats.Pruned,
		},
	}
}

func topicNames(sys *core.System) []string {
	km := sys.Keywords()
	topics := make([]string, km.NumTopics())
	for z := range topics {
		topics[z] = km.TopicName(z)
	}
	return topics
}

// imSeeds shapes ranked seeds for the UI. The result is always a JSON
// array, never null, so front-end iteration is unconditional.
func imSeeds(seeds []core.InfluencerResult) []imSeed {
	out := make([]imSeed, 0, len(seeds))
	for _, seed := range seeds {
		out = append(out, imSeed{
			ID: seed.User, Name: seed.Name, Spread: seed.Spread, Aspect: seed.TopTopicName,
		})
	}
	return out
}

type targetedRequest struct {
	// Q is free text, tokenized like /api/im's q parameter. Keywords, if
	// non-empty, is used verbatim instead.
	Q         string   `json:"q"`
	Keywords  []string `json:"keywords"`
	Audience  []int32  `json:"audience"`
	K         int      `json:"k"`
	RRSamples int      `json:"rrSamples"`
	Seed      uint64   `json:"seed"`
}

type targetedResponse struct {
	Query          []string  `json:"query"`
	Gamma          []float64 `json:"gamma"`
	Topics         []string  `json:"topics"`
	AudienceSpread float64   `json:"audienceSpread"`
	Seeds          []imSeed  `json:"seeds"`
}

// handleTargeted exposes core.DiscoverTargetedInfluencers: k seeds
// maximizing influence over a target audience rather than the whole
// network. The sampling seed defaults to 1, so identical requests give
// identical answers.
func (s *Server) handleTargeted(sys *core.System, w http.ResponseWriter, r *http.Request) {
	var req targetedRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	keywords := req.Keywords
	if len(keywords) == 0 {
		tok := actionlog.Tokenizer{}
		keywords = tok.Tokenize(req.Q)
	}
	if len(keywords) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no keywords: set \"keywords\" or \"q\" in the body"))
		return
	}
	if len(req.Audience) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty \"audience\" in body"))
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := sys.DiscoverTargetedInfluencers(keywords, req.Audience, k, req.RRSamples, seed, costFrom(r))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, targetedResponse{
		Query:          keywords,
		Gamma:          res.Gamma,
		Topics:         topicNames(sys),
		AudienceSpread: res.AudienceSpread,
		Seeds:          imSeeds(res.Seeds),
	})
}

type suggestResponse struct {
	User     string              `json:"user"`
	Keywords []string            `json:"keywords"`
	Gamma    []float64           `json:"gamma"`
	Spread   float64             `json:"spread"`
	Singles  []tags.KeywordScore `json:"singles"`
}

func (s *Server) handleSuggest(sys *core.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errMissing("user"))
		return
	}
	q := params(r)
	k := q.Int("k", 3)
	coherence := q.Float("coherence", 0)
	if q.bad(w) {
		return
	}
	id, err := sys.ResolveUser(user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	sug, err := sys.SuggestKeywords(id, k, tags.SuggestOptions{
		MinCoherence: coherence,
		Cost:         costFrom(r),
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, suggestResponse{
		User:     sys.Graph().Name(id),
		Keywords: sug.Keywords,
		Gamma:    sug.Gamma,
		Spread:   sug.Spread,
		Singles:  sug.Singles,
	})
}

func (s *Server) handleKeywords(sys *core.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errMissing("user"))
		return
	}
	q := params(r)
	limit := q.Int("limit", 20)
	if q.bad(w) {
		return
	}
	id, err := sys.ResolveUser(user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ranked, err := sys.RankUserKeywords(id, limit, costFrom(r))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ranked)
}

func (s *Server) handleRadar(sys *core.System, w http.ResponseWriter, r *http.Request) {
	kw := strings.TrimSpace(r.URL.Query().Get("keyword"))
	if kw == "" {
		writeErr(w, http.StatusBadRequest, errMissing("keyword"))
		return
	}
	radar, err := sys.Radar(kw)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, radar)
}

func (s *Server) handlePaths(sys *core.System, w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errMissing("user"))
		return
	}
	q := params(r)
	theta := q.Float("theta", 0.01)
	maxNodes := q.Int("max", 200)
	highlight := q.Int("highlight", -1)
	if q.bad(w) {
		return
	}
	id, err := sys.ResolveUser(user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	tok := actionlog.Tokenizer{}
	pg, err := sys.InfluencePaths(id, core.PathOptions{
		Keywords: tok.Tokenize(r.URL.Query().Get("q")),
		Theta:    theta,
		MaxNodes: maxNodes,
		Reverse:  r.URL.Query().Get("reverse") == "1",
		Cost:     costFrom(r),
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Optional click-highlight.
	if highlight >= 0 {
		path, err := sys.HighlightPath(pg, int32(highlight))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			*core.PathGraph
			Highlight []int32 `json:"highlight"`
		}{pg, path})
		return
	}
	writeJSON(w, http.StatusOK, pg)
}

func (s *Server) handleComplete(sys *core.System, w http.ResponseWriter, r *http.Request) {
	p := r.URL.Query().Get("prefix")
	if p == "" {
		writeErr(w, http.StatusBadRequest, errMissing("prefix"))
		return
	}
	q := params(r)
	k := q.Int("k", 10)
	if q.bad(w) {
		return
	}
	out := sys.Complete(p, k)
	if out == nil {
		// No match (or k=0) is an empty list, as a coordinator merges it.
		out = []core.Completion{}
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- Streaming ingestion endpoints ----

type ingestItem struct {
	ID       int32    `json:"id"`
	Keywords []string `json:"keywords"`
}

type ingestAction struct {
	User int32 `json:"user"`
	Item int32 `json:"item"`
	Time int64 `json:"time"`
}

type ingestActionsRequest struct {
	Items   []ingestItem   `json:"items"`
	Actions []ingestAction `json:"actions"`
}

type ingestEdgesRequest struct {
	Edges []stream.EdgeEvent `json:"edges"`
}

type ingestResponse struct {
	Enqueued int    `json:"enqueued"`
	Version  uint64 `json:"version"`
}

// requireLive rejects ingestion on a server that cannot accept writes:
// a replica refuses them outright (403 — the leader owns the write
// path), a static server has no ingest pipeline at all (404).
func (s *Server) requireLive(w http.ResponseWriter) bool {
	if s.follower != nil {
		writeErr(w, http.StatusForbidden,
			fmt.Errorf("read-only replica: send writes to the leader at %s", s.follower.Leader()))
		return false
	}
	if s.live == nil {
		writeErr(w, http.StatusNotFound, errors.New("streaming ingestion not enabled on this server"))
		return false
	}
	return true
}

// writeIngestErr maps ingestion failures: a full buffer is backpressure
// (503 + Retry-After) and a closed stream is a server-side condition
// (503, retry against a replacement); anything else is a client error.
func writeIngestErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, stream.ErrBufferFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, stream.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleIngestActions(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	var req ingestActionsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.Items) == 0 && len(req.Actions) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no items or actions in body"))
		return
	}
	items := make([]actionlog.Item, 0, len(req.Items))
	for _, it := range req.Items {
		items = append(items, actionlog.Item{ID: it.ID, Keywords: it.Keywords})
	}
	acts := make([]actionlog.Action, 0, len(req.Actions))
	for _, a := range req.Actions {
		acts = append(acts, actionlog.Action{User: a.User, Item: a.Item, Time: a.Time})
	}
	if err := s.live.TryIngestActions(items, acts); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{
		Enqueued: len(items) + len(acts),
		Version:  s.live.Version(),
	})
}

func (s *Server) handleIngestEdges(w http.ResponseWriter, r *http.Request) {
	if !s.requireLive(w) {
		return
	}
	var req ingestEdgesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.Edges) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no edges in body"))
		return
	}
	if err := s.live.TryIngestEdges(req.Edges); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{
		Enqueued: len(req.Edges),
		Version:  s.live.Version(),
	})
}

func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	var ms *store.MapStats
	if s.storeStats != nil {
		v := s.storeStats()
		ms = &v
	}
	switch {
	case s.live != nil:
		writeJSON(w, http.StatusOK, struct {
			stream.Stats
			Store *store.MapStats `json:"store,omitempty"`
			Repl  any             `json:"repl,omitempty"`
		}{s.live.Stats(), ms, s.replStats()})
	case s.follower != nil:
		st := s.follower.Stats()
		writeJSON(w, http.StatusOK, struct {
			Live    bool            `json:"live"`
			Version uint64          `json:"version"`
			Store   *store.MapStats `json:"store"`
			Repl    repl.Stats      `json:"repl"`
		}{false, st.Version, ms, st})
	case ms != nil:
		// A static server with a mapped snapshot still has mapping stats
		// to report — only the pure static case (nothing to say) 404s.
		writeJSON(w, http.StatusOK, struct {
			Live  bool            `json:"live"`
			Store *store.MapStats `json:"store"`
		}{false, ms})
	default:
		s.requireLive(w)
	}
}

// replStats is the replication section of a leader's
// /api/ingest/stats: its source counters when it ships checkpoints.
func (s *Server) replStats() any {
	if s.replSrc != nil {
		return s.replSrc.Stats()
	}
	return nil
}

type missingParamError string

func (e missingParamError) Error() string { return "missing required parameter: " + string(e) }

func errMissing(name string) error { return missingParamError(name) }
