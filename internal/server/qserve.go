// qserve.go is the query-serving layer of the HTTP API: the glue
// between the route table and internal/qcache. Every read request is
// answered from one pinned (snapshot, generation) pair; the rendered
// response is cached under a canonical key tagged with that generation,
// concurrent identical misses coalesce into a single engine run, and an
// optional admission gate sheds excess engine work with 429 instead of
// queueing it. POST /api/im/targeted takes the same path minus the
// cache: its input is a body, outside the key space. The file also
// hosts the endpoints that exist because of this layer: POST /api/batch
// and GET /api/metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/obs"
	"octopus/internal/qcache"
)

// maxBatchQueries bounds one POST /api/batch request.
const maxBatchQueries = 256

// instrument wraps a route with per-endpoint metrics — request count,
// error count, latency histogram, and (read back from the
// X-Octopus-Cache header the cached path stamps) the cache outcome —
// and with request tracing: a trace is started, stamped on the
// response as X-Octopus-Trace, threaded through the request context so
// downstream layers can attach spans, and finished with the final
// status. With tracing disabled every trace call is a nil-receiver
// no-op.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := s.tracer.Start(endpoint)
		if tr != nil {
			traceHeader(w, tr)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, 0
		h(sw, r)
		state := qcache.CacheState(sw.Header().Get("X-Octopus-Cache"))
		if state == "" {
			state = qcache.StateBypass
		}
		tr.SetCache(string(state))
		if gen, ok := genFromHeader(sw.Header()); ok {
			tr.SetGeneration(gen)
		}
		status := sw.status()
		sw.ResponseWriter = nil
		swPool.Put(sw)
		tr.End(status)
		dur := time.Since(start)
		s.metrics.Observe(endpoint, state, status, dur)
		// Health probes don't feed the SLO windows: a failing state must
		// not sustain itself through its own 503s.
		if endpoint != "health" {
			s.slo.Observe(status, dur)
		}
	}
}

// statusWriter remembers the response status for the metrics layer.
// Instances are pooled: with tracing disabled the serve hot path must
// not allocate, and the wrapper was its last per-request allocation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// query adapts an engine endpoint to the serving path. Read endpoints
// pass the server's result cache; POST /api/im/targeted passes nil.
func (s *Server) query(endpoint string, cache *qcache.Cache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(endpoint, cache, w, r)
	}
}

// serveQuery answers one engine request through the serving layer: pin
// an engine view and its generation, probe the cache, coalesce
// identical concurrent misses, compute behind the admission gate,
// store, replay. A nil cache (caching disabled, or an uncached
// endpoint) skips straight to compute.
func (s *Server) serveQuery(endpoint string, cache *qcache.Cache, w http.ResponseWriter, r *http.Request) {
	v, gen, rel := s.engine.Acquire()
	defer rel()
	tr := obs.TraceFrom(r.Context())
	tr.SetGeneration(gen)
	// Parse the explain flag before touching the cache: a malformed
	// value is a 400, never a cache key. The cost carrier exists only
	// when the request accounts cost (explain, a ledger header request,
	// or tracing so the engine span can carry the counters) — otherwise
	// the engines see nil and skip accounting entirely.
	q := params(r)
	explain := q.Flag("explain")
	if q.bad(w) {
		return
	}
	ledger := !explain && r.Header.Get(wantCostHeader) != ""
	var qc *queryCost
	if explain || ledger || s.tracer != nil {
		qc = &queryCost{explain: explain}
		r = r.WithContext(withQueryCost(r.Context(), qc))
	}
	reply := func(e *qcache.Entry, state qcache.CacheState) {
		if ledger {
			w.Header().Set(costHeader, qc.cost.Compact())
		}
		replayEntry(w, e, state, gen)
	}
	if cache == nil {
		e := s.compute(endpoint, v, r)
		state := qcache.StateBypass
		if e.Status == http.StatusTooManyRequests {
			state = qcache.StateShed
		}
		reply(e, state)
		return
	}
	endCache := tr.Span("cache")
	key := cacheKey(endpoint, v, r.URL.Query())
	state := qcache.StateMiss
	if e, out := cache.Get(key, gen); out == qcache.Hit {
		endCache()
		reply(e, qcache.StateHit)
		return
	} else if out == qcache.Stale {
		// Count the invalidation at eviction time, whatever this request
		// ends up as (leader, coalesced, shed).
		state = qcache.StateStale
		s.metrics.StaleEvict(endpoint)
	}
	endCache()
	// Coalesce on (generation, key): concurrent identical misses share
	// one engine run; a leader pinned before a swap is never joined by a
	// request pinned after it.
	endCoalesce := tr.Span("coalesce")
	fkey := strconv.FormatUint(gen, 10) + "|" + key
	e, shared := s.flight.Do(fkey, func() *qcache.Entry {
		// The leader's result is shared by every coalesced waiter, so the
		// run must not die with the leader's connection: detach its cancel
		// signal (one disconnecting client must not poison the answer for
		// the healthy ones) and let queryCtx's own timeout bound the work.
		leader := r.WithContext(context.WithoutCancel(r.Context()))
		e := s.compute(endpoint, v, leader)
		// Only successful answers are worth replaying; errors are cheap to
		// recompute and may be transient (timeouts, shed). A partial
		// answer (missing shards on a coordinator) is never cached either:
		// the next query must see a recovered shard immediately.
		if e.Status == http.StatusOK && e.Header.Get(shardsMissingHeader) == "" {
			cache.Put(key, gen, e)
		}
		return e
	})
	endCoalesce()
	if e == nil {
		// The flight leader panicked mid-run (recovered by net/http);
		// don't replay nothing at the waiters.
		writeErr(w, http.StatusInternalServerError, errors.New("query computation failed; retry"))
		return
	}
	switch {
	case e.Status == http.StatusTooManyRequests:
		// Handlers never produce 429 themselves: the flight leader was
		// shed by the admission gate. Waiters coalesced onto a shed leader
		// were shed too — report and count them as such (the leader
		// counted itself in compute).
		state = qcache.StateShed
		if shared {
			s.metrics.Shed(endpoint)
		}
	case shared:
		state = qcache.StateCoalesced
	}
	reply(e, state)
}

// compute runs the endpoint against the pinned view behind the
// admission gate and renders its response. When the gate is full the
// request is shed immediately — 429 + Retry-After — rather than
// queued.
func (s *Server) compute(endpoint string, v engineView, r *http.Request) *qcache.Entry {
	tr := obs.TraceFrom(r.Context())
	qc := queryCostFrom(r.Context())
	endGate := tr.Span("gate")
	if !s.gate.TryAcquire() {
		endGate()
		s.metrics.Shed(endpoint)
		return s.shedEntry(endpoint, qc)
	}
	endGate()
	defer s.gate.Release()
	endEngine := tr.Span("engine")
	rec := newRecorder()
	v.Query(endpoint, rec, r)
	endEngine()
	e := rec.entry()
	if qc != nil {
		// The engine span stays the most recently opened span, so the
		// counters land on it; the pointer is owned by this request and
		// never reused.
		tr.AttachCost(&qc.cost)
		s.costs.Observe(endpoint, &qc.cost)
		if qc.explain {
			e = explainEntry(e, &qc.cost)
		}
	}
	return e
}

// shedEntry renders the 429 shed response. Retry-After is derived from
// the endpoint's live p50/p99 latency (rounded up, floor 1s), so
// clients back off proportionally to the actual service time instead
// of hammering a slow endpoint every second. An explain request keeps
// its Retry-After — explainEntry only adds the cost header on non-200s,
// it never drops headers.
func (s *Server) shedEntry(endpoint string, qc *queryCost) *qcache.Entry {
	rec := newRecorder()
	rec.Header().Set("Retry-After", strconv.Itoa(s.metrics.RetryAfterSeconds(endpoint)))
	writeErr(rec, http.StatusTooManyRequests,
		errors.New("server over capacity: in-flight query bound reached; retry"))
	e := rec.entry()
	if qc != nil && qc.explain {
		e = explainEntry(e, &qc.cost)
	}
	return e
}

// cacheKey builds the canonical cache key: endpoint, the normalized
// request parameters, and — for IM queries — the view's γ key
// component (locally the inferred topic distribution, rendered
// exactly). Two requests with equal keys produce byte-identical
// responses against the same view. The key mirrors exactly what
// handlers read: the FIRST value of each parameter (url.Values.Get
// semantics), with names sorted and both sides percent-escaped so no
// value can smuggle a separator and collide with a differently shaped
// request. Free-text q is replaced by its keyword tokens, which is all
// the handler consumes.
func cacheKey(endpoint string, v engineView, q url.Values) string {
	var b strings.Builder
	b.WriteString(endpoint)
	names := make([]string, 0, len(q))
	for name := range q {
		names = append(names, name)
	}
	sort.Strings(names)
	tok := actionlog.Tokenizer{}
	var queryWords []string
	for _, name := range names {
		v := q.Get(name)
		if v == "" {
			continue
		}
		switch {
		case name == "explain":
			// explain=0 is byte-identical to an absent flag, so it must
			// share the cache entry; explain=1 produces a wrapped body and
			// keys separately.
			if v != "1" {
				continue
			}
		case name == "q" && (endpoint == "im" || endpoint == "paths"):
			words := tok.Tokenize(v)
			v = strings.Join(words, " ")
			if endpoint == "im" {
				queryWords = words
			}
		case name == "keyword" && endpoint == "radar":
			v = strings.TrimSpace(v)
		}
		b.WriteByte('&')
		b.WriteString(url.QueryEscape(name))
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(v))
	}
	if len(queryWords) > 0 {
		if gk := v.GammaKey(queryWords); gk != "" {
			b.WriteString("|g=")
			b.WriteString(gk)
		}
	}
	return b.String()
}

// recorder captures a handler's response for caching and replay.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (rc *recorder) Header() http.Header { return rc.header }

func (rc *recorder) WriteHeader(code int) {
	if rc.code == 0 {
		rc.code = code
	}
}

func (rc *recorder) Write(b []byte) (int, error) {
	if rc.code == 0 {
		rc.code = http.StatusOK
	}
	return rc.body.Write(b)
}

func (rc *recorder) entry() *qcache.Entry {
	if rc.code == 0 {
		rc.code = http.StatusOK
	}
	return &qcache.Entry{Status: rc.code, Header: rc.header, Body: rc.body.Bytes()}
}

// replayEntry writes a rendered entry to the wire, stamping the pinned
// generation and how the answer was produced.
func replayEntry(w http.ResponseWriter, e *qcache.Entry, state qcache.CacheState, gen uint64) {
	for k, vs := range e.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Octopus-Generation", strconv.FormatUint(gen, 10))
	w.Header().Set("X-Octopus-Cache", string(state))
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body)
}

// ---- POST /api/batch ----

type batchQuery struct {
	// Endpoint is a read endpoint name: im, suggest, keywords, radar,
	// paths or complete.
	Endpoint string `json:"endpoint"`
	// Params are the endpoint's query parameters.
	Params map[string]string `json:"params"`
}

type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

type batchResult struct {
	Status     int             `json:"status"`
	Cache      string          `json:"cache,omitempty"`
	Generation uint64          `json:"generation,omitempty"`
	Body       json.RawMessage `json:"body"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
}

// batchFanout bounds how many sub-queries of one batch run
// concurrently. Admission is still the gate's job — the fan-out bound
// only keeps a single batch from monopolizing the scheduler.
const batchFanout = 8

// handleBatch answers many read queries in one round trip. Each
// sub-query flows through the full serving layer — cache, coalescing,
// admission, per-endpoint metrics — exactly as if issued alone, and
// each pins its own snapshot (a swap mid-batch is visible as a
// generation step in the results). Sub-queries run with a bounded
// fan-out, so an all-miss batch costs roughly its slowest member, not
// the sum. The batch request itself holds no admission slot, so a
// batch can never starve its own sub-queries.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no queries in body"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds limit %d", len(req.Queries), maxBatchQueries))
		return
	}
	resp := batchResponse{Results: make([]batchResult, len(req.Queries))}
	sem := make(chan struct{}, batchFanout)
	var wg sync.WaitGroup
	for i, bq := range req.Queries {
		wg.Add(1)
		go func(i int, bq batchQuery) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp.Results[i] = s.batchOne(r, bq)
		}(i, bq)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) batchOne(r *http.Request, bq batchQuery) batchResult {
	// Targeted reads a POST body; a batch sub-query is a GET.
	if _, ok := s.queryHandlers[bq.Endpoint]; !ok || bq.Endpoint == "targeted" {
		rec := newRecorder()
		writeErr(rec, http.StatusBadRequest,
			fmt.Errorf("unknown batch endpoint %q (want one of im, suggest, keywords, radar, paths, complete)", bq.Endpoint))
		e := rec.entry()
		return batchResult{Status: e.Status, Body: e.Body}
	}
	vals := make(url.Values, len(bq.Params))
	for k, v := range bq.Params {
		vals.Set(k, v)
	}
	sub, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
		"/api/"+bq.Endpoint+"?"+vals.Encode(), nil)
	if err != nil {
		rec := newRecorder()
		writeErr(rec, http.StatusBadRequest, fmt.Errorf("bad batch query: %w", err))
		e := rec.entry()
		return batchResult{Status: e.Status, Body: e.Body}
	}
	// Route through the same instrumentation as a standalone request, so
	// batch traffic shows up in the per-endpoint metrics too.
	rec := newRecorder()
	s.instrument(bq.Endpoint, s.query(bq.Endpoint, s.cache))(rec, sub)
	e := rec.entry()
	gen, _ := strconv.ParseUint(e.Header.Get("X-Octopus-Generation"), 10, 64)
	return batchResult{
		Status:     e.Status,
		Cache:      e.Header.Get("X-Octopus-Cache"),
		Generation: gen,
		Body:       e.Body,
	}
}

// ---- GET /api/metrics ----

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type metricsResponse struct {
		qcache.Snapshot
		Generation   uint64        `json:"generation"`
		CacheEntries int           `json:"cacheEntries"`
		InFlight     int           `json:"inFlight"`
		MaxInflight  int           `json:"maxInflight"`
		Shards       []shardHealth `json:"shards,omitempty"`
	}
	resp := metricsResponse{
		Snapshot:    s.metrics.Report(),
		Generation:  s.generation(),
		InFlight:    s.gate.InFlight(),
		MaxInflight: s.gate.Capacity(),
	}
	if s.cache != nil {
		resp.CacheEntries = s.cache.Len()
	}
	if s.coord != nil {
		resp.Shards = s.coord.health()
	}
	writeJSON(w, http.StatusOK, resp)
}
