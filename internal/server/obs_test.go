package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/stream"
)

// durableLiveServer opens a durable live node over a t.TempDir store so
// the WAL/checkpoint instruments are populated.
func durableLiveServer(t *testing.T, opt Options) (*Server, *stream.LiveSystem) {
	t.Helper()
	n := openNode(t, Deployment{Server: opt, Ingest: true, Dir: t.TempDir(), RebuildEvents: 1 << 20, Base: baseOf(liveBase(t))})
	return n.Server, n.Server.live
}

func scrape(t *testing.T, h http.Handler) []obs.Family {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	fams, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, rec.Body.String())
	}
	return fams
}

func famByName(fams []obs.Family, name string) *obs.Family {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// TestTraceSpanTree is the end-to-end tracing check: a cache-miss query
// produces a trace whose spans name the serving layers — cache,
// coalesce, gate, engine — with the pinned snapshot generation and the
// cache outcome attached, retrievable from /api/debug/traces by the id
// the response carried.
func TestTraceSpanTree(t *testing.T) {
	s, sys := testServerWith(t)
	kw := vocabKeyword(sys)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/im?q="+kw+"&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("X-Octopus-Trace")
	if id == "" {
		t.Fatal("response missing X-Octopus-Trace")
	}

	trec := httptest.NewRecorder()
	s.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/api/debug/traces?n=10", nil))
	var resp struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(trec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("traces payload: %v", err)
	}
	var tr *obs.Trace
	for i := range resp.Traces {
		if resp.Traces[i].ID == id {
			tr = &resp.Traces[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not in /api/debug/traces (got %d traces)", id, len(resp.Traces))
	}
	if tr.Endpoint != "im" || tr.Status != http.StatusOK {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Cache != "miss" {
		t.Fatalf("first query cache state = %q, want miss", tr.Cache)
	}
	if tr.Generation != 1 {
		t.Fatalf("trace generation = %d, want 1 (static server)", tr.Generation)
	}
	got := map[string]bool{}
	for _, sp := range tr.Spans {
		got[sp.Name] = true
	}
	for _, want := range []string{"cache", "coalesce", "gate", "engine"} {
		if !got[want] {
			t.Fatalf("span %q missing from trace (spans: %+v)", want, tr.Spans)
		}
	}

	// The identical query again: a hit never reaches the engine, and its
	// trace says so.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/api/im?q="+kw+"&k=3", nil))
	id2 := rec2.Header().Get("X-Octopus-Trace")
	trec2 := httptest.NewRecorder()
	s.ServeHTTP(trec2, httptest.NewRequest(http.MethodGet, "/api/debug/traces?n=10", nil))
	var resp2 struct {
		Traces []obs.Trace `json:"traces"`
	}
	_ = json.Unmarshal(trec2.Body.Bytes(), &resp2)
	for i := range resp2.Traces {
		if resp2.Traces[i].ID == id2 {
			if resp2.Traces[i].Cache != "hit" {
				t.Fatalf("repeat query cache state = %q, want hit", resp2.Traces[i].Cache)
			}
			for _, sp := range resp2.Traces[i].Spans {
				if sp.Name == "engine" {
					t.Fatal("cache hit ran the engine")
				}
			}
			return
		}
	}
	t.Fatalf("trace %s not found for repeat query", id2)
}

// testServerWith builds a fresh static server (not the shared srvOnce
// one) so trace/metric assertions see only this test's traffic.
func testServerWith(t *testing.T) (*Server, *core.System) {
	t.Helper()
	_, sys := testServer(t)
	return NewWith(sys, Options{}), sys
}

// TestTracingDisabled pins the off switch: negative TraceRing means no
// trace header, no ring, and /api/debug/traces serves an empty list.
func TestTracingDisabled(t *testing.T) {
	_, sys := testServer(t)
	s := NewWith(sys, Options{TraceRing: -1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/im?q="+vocabKeyword(sys), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	if id := rec.Header().Get("X-Octopus-Trace"); id != "" {
		t.Fatalf("disabled tracing still stamped X-Octopus-Trace=%q", id)
	}
	trec := httptest.NewRecorder()
	s.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/api/debug/traces", nil))
	if trec.Code != http.StatusOK || !strings.Contains(trec.Body.String(), `"traces":[]`) {
		t.Fatalf("traces with tracing off = %d %s", trec.Code, trec.Body.String())
	}
}

// TestMetricsPrometheus scrapes a durable live server after real
// traffic and checks the exposition covers every instrument group the
// observability layer promises: serving, ingest, fold, WAL, runtime.
func TestMetricsPrometheus(t *testing.T) {
	s, ls := durableLiveServer(t, Options{})

	// Traffic: a query (serving counters), an ingest batch + forced fold
	// (pipeline counters, WAL, checkpoint).
	for _, path := range []string{"/api/complete?prefix=A", "/api/im?q=data+mining&k=3"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
	}
	rec, _ := postJSON(t, s, "/api/ingest/actions",
		`{"items":[{"id":910001,"keywords":["prometheus"]}],"actions":[{"user":0,"item":910001,"time":7}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}

	fams := scrape(t, s)
	for _, name := range []string{
		// serving
		"octopus_requests_total", "octopus_request_duration_seconds",
		"octopus_snapshot_generation", "octopus_inflight_capacity",
		// ingest pipeline
		"octopus_ingest_events_total", "octopus_ingest_applied_total",
		"octopus_ingest_staleness_seconds", "octopus_folds_total",
		"octopus_fold_stage_seconds",
		// durability
		"octopus_wal_records_total", "octopus_wal_append_duration_seconds",
		"octopus_checkpoints_total", "octopus_checkpoint_duration_seconds",
		// runtime
		"go_goroutines", "go_gc_cycles_total", "go_gc_heap_allocs_bytes_total",
		// query scratch
		"octopus_query_scratch_created_total",
	} {
		if famByName(fams, name) == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}

	// The query above must be visible as a labeled request counter.
	reqs := famByName(fams, "octopus_requests_total")
	found := false
	for _, sm := range reqs.Samples {
		if sm.Labels["endpoint"] == "complete" && sm.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("octopus_requests_total{endpoint=\"complete\"} missing: %+v", reqs.Samples)
	}

	// Both scratch kinds are counted, and the engine the IM query used
	// was built at some point in this process.
	kinds := map[string]float64{}
	for _, sm := range famByName(fams, "octopus_query_scratch_created_total").Samples {
		kinds[sm.Labels["kind"]] = sm.Value
	}
	if len(kinds) != 2 || kinds["otim"] < 1 {
		t.Fatalf("octopus_query_scratch_created_total by kind = %v", kinds)
	}
	if c := famByName(fams, "go_gc_heap_allocs_bytes_total"); c.Samples[0].Value <= 0 {
		t.Fatalf("go_gc_heap_allocs_bytes_total = %v", c.Samples[0].Value)
	}

	// The fold must be visible: snapshot generation advanced and a
	// checkpoint counted.
	if g := famByName(fams, "octopus_snapshot_generation"); g.Samples[0].Value < 2 {
		t.Fatalf("snapshot generation = %v after fold", g.Samples[0].Value)
	}
	if c := famByName(fams, "octopus_checkpoints_total"); c.Samples[0].Value < 1 {
		t.Fatalf("checkpoints = %v after ForceSnapshot", c.Samples[0].Value)
	}
}

// TestAPIMetricsUnchanged pins the JSON endpoint's field set — the
// Prometheus migration must not change /api/metrics.
func TestAPIMetricsUnchanged(t *testing.T) {
	s, sys := testServerWith(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/im?q="+vocabKeyword(sys), nil))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/metrics", nil))
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"endpoints", "endpointNames", "requests", "shed",
		"uptimeSeconds", "generation", "cacheEntries", "inFlight", "maxInflight"} {
		if _, ok := v[k]; !ok {
			t.Errorf("/api/metrics missing field %q", k)
		}
	}
	eps, ok := v["endpoints"].(map[string]any)
	if !ok || eps["im"] == nil {
		t.Fatalf("endpoints map = %v", v["endpoints"])
	}
	im := eps["im"].(map[string]any)
	for _, k := range []string{"count", "errors", "cacheHits", "cacheMisses", "cacheStale",
		"coalesced", "shed", "p50Millis", "p99Millis", "maxMillis", "meanMillis"} {
		if _, ok := im[k]; !ok {
			t.Errorf("endpoint snapshot missing field %q", k)
		}
	}
}

// TestObsConcurrentSoak hammers queries, ingest and scrapes at once
// (run under -race in CI): the exposition stays parseable, request
// counters are monotone across scrapes, and the trace ring never
// exceeds its bound.
func TestObsConcurrentSoak(t *testing.T) {
	const ringBound = 32
	s, _ := durableLiveServer(t, Options{TraceRing: ringBound})

	const workers, iters = 4, 40
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/api/complete?prefix=A&k=%d", 1+(w+i)%7), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("query = %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			rec, _ := postJSON(t, s, "/api/ingest/actions", fmt.Sprintf(
				`{"items":[{"id":%d,"keywords":["soak"]}],"actions":[{"user":0,"item":%d,"time":%d}]}`,
				920000+i, 920000+i, 100+i))
			if rec.Code != http.StatusAccepted && rec.Code != http.StatusServiceUnavailable {
				t.Errorf("ingest = %d", rec.Code)
				return
			}
		}
	}()

	var lastTotal float64
	for i := 0; i < 10; i++ {
		fams := scrape(t, s)
		var total float64
		if f := famByName(fams, "octopus_requests_total"); f != nil {
			for _, sm := range f.Samples {
				total += sm.Value
			}
		}
		if total < lastTotal {
			t.Fatalf("octopus_requests_total went backwards: %v -> %v", lastTotal, total)
		}
		lastTotal = total

		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/debug/traces?n=1000", nil))
		var resp struct {
			Traces []obs.Trace `json:"traces"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Traces) > ringBound {
			t.Fatalf("trace ring returned %d traces, bound %d", len(resp.Traces), ringBound)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestAdminConformance pins the admin mux: pprof present, the shared
// observability routes live, method discipline and JSON errors intact.
func TestAdminConformance(t *testing.T) {
	s, _ := testServerWith(t)
	admin := s.AdminHandler()

	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		admin.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	if rec := do("GET", "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("admin /metrics = %d", rec.Code)
	}
	if rec := do("HEAD", "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("admin HEAD /metrics = %d", rec.Code)
	}
	if rec := do("POST", "/metrics"); rec.Code != http.StatusMethodNotAllowed ||
		rec.Header().Get("Allow") != "GET" {
		t.Fatalf("admin POST /metrics = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
	if rec := do("GET", "/api/debug/traces"); rec.Code != http.StatusOK {
		t.Fatalf("admin traces = %d", rec.Code)
	}
	if rec := do("GET", "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof index = %d", rec.Code)
	}
	if rec := do("GET", "/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", rec.Code)
	}
	rec := do("GET", "/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown admin route = %d", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("admin 404 not a JSON error: %s", rec.Body.String())
	}
	if rec := do("GET", "/"); rec.Code != http.StatusOK {
		t.Fatalf("admin index = %d", rec.Code)
	}
}
