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
	"slices"
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

// Response headers the serving layer stamps.
const (
	traceHeader      = "X-Octopus-Trace"
	generationHeader = "X-Octopus-Generation"
	cacheHeader      = "X-Octopus-Cache"
)

// instrument wraps a route with per-endpoint metrics — request count,
// error count, latency histogram and the cache outcome — and with
// request tracing: a trace is started (adopting a well-formed incoming
// X-Octopus-Trace id, so a coordinator's shards join its trace),
// stamped on the response as X-Octopus-Trace, handed to the route
// through the pooled statusWriter, and finished with the final status.
// The serving layer reports the cache outcome and the pinned
// generation in the statusWriter's fields, never through the response
// headers. With tracing disabled every trace call is a nil-receiver
// no-op.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter = w
		tr := s.tracer.Start(endpoint, r.Header.Get(traceHeader))
		if tr != nil {
			sw.trace = tr
			w.Header()[traceHeader] = []string{tr.ID()}
		}
		h(sw, r)
		state := sw.cache
		if state == "" {
			state = qcache.StateBypass
		}
		tr.SetCache(string(state))
		if sw.pinned {
			tr.SetGeneration(sw.gen)
		}
		status := sw.status()
		key := sw.key[:0]
		if cap(key) > maxPooledKey {
			key = nil // one outsized query string must not stay pooled
		}
		*sw = statusWriter{key: key}
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

// statusWriter is the per-request serving state: it remembers the
// response status for the metrics layer, carries the request's trace
// down to the serving layer and the cache outcome and pinned generation
// back up, and lends the serving layer its cache-key buffer. Instances
// are pooled: the serve hot path must not allocate for any of it.
type statusWriter struct {
	http.ResponseWriter
	code   int
	trace  *obs.ActiveTrace  // nil with tracing off
	cache  qcache.CacheState // "" = bypass
	gen    uint64            // the generation the request pinned
	pinned bool              // gen is set
	key    []byte            // cache-key scratch, kept across requests
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// maxPooledKey bounds the key buffer a pooled statusWriter keeps.
const maxPooledKey = 4 << 10

// servingState returns the statusWriter instrument wrapped w in — a
// fresh one when a handler runs outside instrument.
func servingState(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w}
}

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

// genValue is one generation's X-Octopus-Generation header value.
type genValue struct {
	gen uint64
	val []string
}

// genHeader returns the X-Octopus-Generation value for gen, rendered
// once per generation: requests share the immutable one-element slice
// until the generation moves.
func (s *Server) genHeader(gen uint64) []string {
	if g := s.genHdr.Load(); g != nil && g.gen == gen {
		return g.val
	}
	g := &genValue{gen: gen, val: []string{strconv.FormatUint(gen, 10)}}
	s.genHdr.Store(g)
	return g.val
}

// stateHeaders are the X-Octopus-Cache values, shared by every
// response: one-element slices a response header may hold but never
// mutates.
var stateHeaders = func() map[qcache.CacheState][]string {
	m := make(map[qcache.CacheState][]string)
	for _, st := range []qcache.CacheState{qcache.StateHit, qcache.StateMiss, qcache.StateStale,
		qcache.StateCoalesced, qcache.StateShed, qcache.StateBypass} {
		m[st] = []string{string(st)}
	}
	return m
}()

// query adapts an engine endpoint to the serving path. Read endpoints
// pass the server's result cache; POST /api/im/targeted passes nil.
func (s *Server) query(endpoint string, cache *qcache.Cache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(endpoint, cache, servingState(w), r)
	}
}

// serveQuery answers one engine request through the serving layer: pin
// an engine view and its generation, probe the cache, coalesce
// identical concurrent misses, compute behind the admission gate,
// store, replay. A nil cache (caching disabled, or an uncached
// endpoint) skips straight to compute.
//
// A hit is a parse, a lookup and a write: the query string is parsed
// once (feeding both the explain flag and the key), the key is built in
// the statusWriter's buffer and looked up without materializing it, and
// the stored headers are replayed as they are. Only a request that
// runs an engine pays for a request context carrying its trace and
// cost carrier (engineRequest).
func (s *Server) serveQuery(endpoint string, cache *qcache.Cache, sw *statusWriter, r *http.Request) {
	v, gen, rel := s.engine.Acquire()
	defer rel()
	sw.gen, sw.pinned = gen, true
	tr := sw.trace
	// Parse the explain flag before touching the cache: a malformed
	// value is a 400, never a cache key.
	q := qparams{q: r.URL.Query()}
	explain := q.Flag("explain")
	if q.bad(sw) {
		return
	}
	ledger := !explain && r.Header.Get(wantCostHeader) != ""
	// qc is the engine run's cost carrier. It exists only on the miss
	// path, and only when the request accounts cost (explain, a ledger
	// header request, or tracing so the engine span can carry the
	// counters) — otherwise the engines see nil and skip accounting.
	var qc *queryCost
	reply := func(e *qcache.Entry, state qcache.CacheState) {
		sw.cache = state
		if ledger {
			cost := "none"
			if qc != nil {
				cost = qc.cost.Compact()
			}
			sw.Header().Set(costHeader, cost)
		}
		replayEntry(sw, e, stateHeaders[state], s.genHeader(gen))
	}
	if cache == nil {
		qc = s.costCarrier(explain, ledger)
		e := s.compute(endpoint, v, engineRequest(r, r.Context(), tr, qc))
		state := qcache.StateBypass
		if e.Status == http.StatusTooManyRequests {
			state = qcache.StateShed
		}
		reply(e, state)
		return
	}
	span := tr.Span("cache")
	sw.key = appendCacheKey(sw.key[:0], endpoint, q.q)
	state := qcache.StateMiss
	if e, out := cache.GetBytes(sw.key, gen); out == qcache.Hit {
		span.End()
		reply(e, qcache.StateHit)
		return
	} else if out == qcache.Stale {
		// Count the invalidation at eviction time, whatever this request
		// ends up as (leader, coalesced, shed).
		state = qcache.StateStale
		s.metrics.StaleEvict(endpoint)
	}
	span.End()
	// Coalesce on (generation, key): concurrent identical misses share
	// one engine run; a leader pinned before a swap is never joined by a
	// request pinned after it.
	span = tr.Span("coalesce")
	key := string(sw.key)
	qc = s.costCarrier(explain, ledger)
	e, shared := s.flight.Do(qcache.FlightKey{Gen: gen, Key: key}, func() *qcache.Entry {
		// The leader's result is shared by every coalesced waiter, so the
		// run must not die with the leader's connection: detach its cancel
		// signal (one disconnecting client must not poison the answer for
		// the healthy ones) and let queryCtx's own timeout bound the work.
		e := s.compute(endpoint, v, engineRequest(r, context.WithoutCancel(r.Context()), tr, qc))
		// Only successful answers are worth replaying; errors are cheap to
		// recompute and may be transient (timeouts, shed). A partial
		// answer (missing shards on a coordinator) is never cached either:
		// the next query must see a recovered shard immediately.
		if e.Status == http.StatusOK && e.Header.Get(shardsMissingHeader) == "" {
			cache.Put(key, gen, e)
		}
		return e
	})
	span.End()
	if e == nil {
		// The flight leader panicked mid-run (recovered by net/http);
		// don't replay nothing at the waiters.
		writeErr(sw, http.StatusInternalServerError, errors.New("query computation failed; retry"))
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

// costCarrier returns the cost carrier of a request about to run an
// engine, or nil when it accounts nothing.
func (s *Server) costCarrier(explain, ledger bool) *queryCost {
	if explain || ledger || s.tracer != nil {
		return &queryCost{explain: explain}
	}
	return nil
}

// engineRequest hands the trace and the cost carrier of a request
// that runs an engine down to the engines, through ctx: the only
// request copy a query pays, and never on a cache hit.
func engineRequest(r *http.Request, ctx context.Context, tr *obs.ActiveTrace, qc *queryCost) *http.Request {
	if tr != nil {
		ctx = obs.WithTrace(ctx, tr)
	}
	if qc != nil {
		ctx = withQueryCost(ctx, qc)
	}
	if ctx == r.Context() {
		return r
	}
	return r.WithContext(ctx)
}

// compute runs the endpoint against the pinned view behind the
// admission gate and renders its response. When the gate is full the
// request is shed immediately — 429 + Retry-After — rather than
// queued.
func (s *Server) compute(endpoint string, v engineView, r *http.Request) *qcache.Entry {
	tr := obs.TraceFrom(r.Context())
	qc := queryCostFrom(r.Context())
	span := tr.Span("gate")
	if !s.gate.TryAcquire() {
		span.End()
		s.metrics.Shed(endpoint)
		return s.shedEntry(endpoint, qc)
	}
	span.End()
	defer s.gate.Release()
	span = tr.Span("engine")
	rec := newRecorder()
	v.Query(endpoint, rec, r)
	span.End()
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

// maxKeyParams sizes the stack array appendCacheKey sorts parameters
// in; a request with more spills to the heap.
const maxKeyParams = 16

// appendCacheKey appends the canonical cache key of a read request to
// b: the endpoint, then the normalized request parameters. Two
// requests with equal keys produce byte-identical responses against the
// same view. The key mirrors exactly what handlers read: the FIRST
// value of each parameter (url.Values.Get semantics), names sorted,
// empty values dropped. Free-text q (im, paths) is replaced by its
// keyword tokens, which is all the handler consumes; radar's keyword
// is trimmed; explain=0 is byte-identical to an absent flag and shares
// the entry, while explain=1 produces a wrapped body and keys
// separately. Every name and value is written as a key field
// (appendKeyField), so no value can smuggle a separator and collide
// with a differently shaped request.
//
// The key holds no γ. Every entry is tagged with the generation it was
// computed at, and within one generation an im answer's γ is
// InferGamma(tokens(q)) on the pinned system: a pure function of the
// tokens already in the key. The same holds on a coordinator, whose
// shards all adopted one topic model.
func appendCacheKey(b []byte, endpoint string, q url.Values) []byte {
	type param struct{ name, value string }
	var stack [maxKeyParams]param
	ps := stack[:0]
	for name, vs := range q {
		if len(vs) > 0 && vs[0] != "" {
			ps = append(ps, param{name, vs[0]})
		}
	}
	slices.SortFunc(ps, func(x, y param) int { return strings.Compare(x.name, y.name) })
	b = appendKeyField(b, endpoint)
	for _, p := range ps {
		v := p.value
		switch {
		case p.name == "explain":
			if v != "1" {
				continue
			}
		case p.name == "q" && (endpoint == "im" || endpoint == "paths"):
			b = appendKeyField(b, p.name)
			b = actionlog.Tokenizer{}.AppendTokens(b, v)
			b = append(b, 0) // tokens are ASCII alphanumerics and spaces
			continue
		case p.name == "keyword" && endpoint == "radar":
			v = strings.TrimSpace(v)
		}
		b = appendKeyField(b, p.name)
		b = appendKeyField(b, v)
	}
	return b
}

// appendKeyField appends s as one self-delimiting key field: its bytes
// with 0x00 and 0x01 escaped behind 0x01, then a 0x00 terminator. A
// sequence of fields therefore decodes uniquely, whatever bytes the
// values hold.
func appendKeyField(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= 1 {
			b = append(b, 1)
		}
		b = append(b, s[i])
	}
	return append(b, 0)
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

// entry returns the recorded response as an entry whose header value
// slices are capacity-clipped: replay hands them to response headers
// as they are, and an append there must copy, never write into the
// stored entry.
func (rc *recorder) entry() *qcache.Entry {
	if rc.code == 0 {
		rc.code = http.StatusOK
	}
	for k, vs := range rc.header {
		rc.header[k] = slices.Clip(vs)
	}
	return &qcache.Entry{Status: rc.code, Header: rc.header, Body: rc.body.Bytes()}
}

// replayEntry writes a rendered entry to the wire, stamping the pinned
// generation and how the answer was produced. The entry's header slices
// are assigned, not copied; a header the response already carries keeps
// its values ahead of the entry's, as Header.Add would.
func replayEntry(w http.ResponseWriter, e *qcache.Entry, state, gen []string) {
	h := w.Header()
	for k, vs := range e.Header {
		if old, ok := h[k]; ok {
			vs = append(slices.Clip(old), vs...)
		}
		h[k] = vs
	}
	h[generationHeader] = gen
	h[cacheHeader] = state
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
	gen, _ := strconv.ParseUint(e.Header.Get(generationHeader), 10, 64)
	return batchResult{
		Status:     e.Status,
		Cache:      e.Header.Get(cacheHeader),
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
