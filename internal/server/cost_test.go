package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"octopus/internal/obs"
)

// explainDoc is the ?explain=1 response envelope.
type explainDoc struct {
	Result json.RawMessage `json:"result"`
	Cost   *obs.Cost       `json:"cost"`
}

func TestExplainEnvelope(t *testing.T) {
	s, sys := freshServer(t, Options{})
	kw := vocabKeyword(sys)
	rec, _ := get(t, s, "/api/im?q="+kw+"&k=3&explain=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var doc explainDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("explain body is not the envelope: %v\n%s", err, rec.Body.String())
	}
	var result map[string]any
	if err := json.Unmarshal(doc.Result, &result); err != nil {
		t.Fatal(err)
	}
	if _, ok := result["seeds"]; !ok {
		t.Fatalf("wrapped result lost the im payload: %s", doc.Result)
	}
	if doc.Cost.IsZero() {
		t.Fatal("explain cost is all-zero for an engine query")
	}
	if doc.Cost.OTIM.ExactEvals == 0 || doc.Cost.MIA.Trees == 0 {
		t.Errorf("im cost missing engine stages: %+v", doc.Cost)
	}
	hdr := rec.Header().Get("X-Octopus-Cost")
	if hdr == "" || hdr == "none" {
		t.Errorf("X-Octopus-Cost = %q, want a compact breakdown", hdr)
	}
	if hdr != doc.Cost.Compact() {
		t.Errorf("header %q does not match body cost %q", hdr, doc.Cost.Compact())
	}
}

// TestExplainOffIsByteIdentical pins the no-explain contract: explain=0
// and an absent parameter produce byte-identical responses with no cost
// header, and share one cache entry.
func TestExplainOffIsByteIdentical(t *testing.T) {
	s, sys := freshServer(t, Options{})
	kw := vocabKeyword(sys)
	plain, _ := get(t, s, "/api/im?q="+kw+"&k=3")
	if plain.Code != http.StatusOK {
		t.Fatalf("status = %d", plain.Code)
	}
	if h := plain.Header().Get("X-Octopus-Cost"); h != "" {
		t.Errorf("default response carries X-Octopus-Cost=%q", h)
	}
	off, _ := get(t, s, "/api/im?q="+kw+"&k=3&explain=0")
	if !bytes.Equal(plain.Body.Bytes(), off.Body.Bytes()) {
		t.Error("explain=0 body differs from the plain response")
	}
	if off.Header().Get("X-Octopus-Cache") != "hit" {
		t.Errorf("explain=0 did not share the plain cache entry (cache=%q)",
			off.Header().Get("X-Octopus-Cache"))
	}
}

// TestExplainCacheReplay: explain responses are cached in wrapped form
// and replay byte-identically, cost header included.
func TestExplainCacheReplay(t *testing.T) {
	s, sys := freshServer(t, Options{})
	kw := vocabKeyword(sys)
	path := "/api/im?q=" + kw + "&k=4&explain=1"
	first, _ := get(t, s, path)
	if first.Code != http.StatusOK || first.Header().Get("X-Octopus-Cache") != "miss" {
		t.Fatalf("first explain: status=%d cache=%q", first.Code, first.Header().Get("X-Octopus-Cache"))
	}
	second, _ := get(t, s, path)
	if second.Header().Get("X-Octopus-Cache") != "hit" {
		t.Fatalf("second explain cache = %q, want hit", second.Header().Get("X-Octopus-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached explain replay is not byte-identical")
	}
	if second.Header().Get("X-Octopus-Cost") != first.Header().Get("X-Octopus-Cost") {
		t.Error("replay lost or changed the X-Octopus-Cost header")
	}
	// The plain form must not be served the wrapped body.
	plain, _ := get(t, s, "/api/im?q="+kw+"&k=4")
	var env explainDoc
	if err := json.Unmarshal(plain.Body.Bytes(), &env); err == nil && env.Cost != nil {
		t.Error("plain query served the wrapped explain entry")
	}
}

// TestShedWithExplainKeepsRetryAfter covers the 429 + explain corner:
// the backoff hint must survive the explain decoration.
func TestShedWithExplainKeepsRetryAfter(t *testing.T) {
	s, _ := freshServer(t, Options{CacheEntries: -1, MaxInflight: 1})
	if !s.gate.TryAcquire() {
		t.Fatal("could not fill the gate")
	}
	defer s.gate.Release()
	rec, body := get(t, s, "/api/im?q=data&k=3&explain=1")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("shed explain response lost Retry-After")
	}
	if c := rec.Header().Get("X-Octopus-Cache"); c != "shed" {
		t.Errorf("cache-off shed labelled X-Octopus-Cache %q, want shed", c)
	}
	if h := rec.Header().Get("X-Octopus-Cost"); h != "none" {
		t.Errorf("shed request cost header = %q, want none (no engine work)", h)
	}
	if body["error"] == nil {
		t.Errorf("shed body lost the error payload: %s", rec.Body.String())
	}
}

func TestTargetedExplain(t *testing.T) {
	s, _ := freshServer(t, Options{})
	rec, _ := postJSON(t, s, "/api/im/targeted?explain=1",
		`{"q":"data","audience":[0,1,2,3],"k":2,"rrSamples":300}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var doc explainDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("targeted explain envelope: %v\n%s", err, rec.Body.String())
	}
	if doc.Cost == nil || doc.Cost.RIS.Samples != 300 {
		t.Errorf("targeted cost should charge exactly rrSamples RR sets: %+v", doc.Cost)
	}
	if rec.Header().Get("X-Octopus-Cost") == "" {
		t.Error("targeted explain missing X-Octopus-Cost")
	}
	bad, _ := postJSON(t, s, "/api/im/targeted?explain=oops", `{"q":"data","audience":[0]}`)
	if bad.Code != http.StatusBadRequest {
		t.Errorf("malformed targeted explain = %d, want 400", bad.Code)
	}
}

// TestCostHistogramsExposed: accounted queries feed the per-endpoint
// cost distributions on /metrics.
func TestCostHistogramsExposed(t *testing.T) {
	s, sys := freshServer(t, Options{})
	if rec, _ := get(t, s, "/api/im?q="+vocabKeyword(sys)+"&k=3&explain=1"); rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	fams := scrape(t, s)
	for _, name := range []string{"octopus_query_nodes_touched", "octopus_query_samples_mixed"} {
		fam := famByName(fams, name)
		if fam == nil {
			t.Fatalf("family %s missing from /metrics", name)
		}
		found := false
		for _, sample := range fam.Samples {
			if sample.Labels["endpoint"] == "im" && sample.Name == name+"_count" && sample.Value >= 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no im observation", name)
		}
	}
}

// TestTraceSpanCarriesCost: with tracing on, even a non-explain query
// accounts cost and attaches it to the engine span in the trace ring.
func TestTraceSpanCarriesCost(t *testing.T) {
	s, sys := testServerWith(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/im?q="+vocabKeyword(sys)+"&k=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d", rec.Code)
	}
	id := rec.Header().Get("X-Octopus-Trace")
	trec := httptest.NewRecorder()
	s.ServeHTTP(trec, httptest.NewRequest(http.MethodGet, "/api/debug/traces?n=10", nil))
	var resp struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(trec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, tr := range resp.Traces {
		if tr.ID != id {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Cost != nil && !sp.Cost.IsZero() {
				return
			}
		}
		t.Fatalf("no span carries a cost in trace %s: %+v", id, tr.Spans)
	}
	t.Fatalf("trace %s not found", id)
}

// nopResponseWriter is a reusable ResponseWriter for allocation
// measurements: the header map is allocated once, writes are discarded.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// TestInstrumentZeroAllocWhenTracingDisabled pins the hot-path budget:
// with the tracer off (-trace-ring negative), the serving wrapper —
// status recording, cache-state extraction, latency metrics, SLO feed —
// must not allocate at all per request.
func TestInstrumentZeroAllocWhenTracingDisabled(t *testing.T) {
	_, sys := testServer(t)
	s := NewWith(sys, Options{TraceRing: -1})
	h := s.instrument("im", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	w := &nopResponseWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, "/api/im?q=x", nil)
	if allocs := testing.AllocsPerRun(200, func() {
		h(w, r)
	}); allocs != 0 {
		t.Errorf("instrument allocates %.1f objects per request with tracing off, want 0", allocs)
	}
}

// maxExplainAllocs is what ?explain=1 may add to an uncached, untraced
// query: the cost carrier and its context, the request copy, the
// X-Octopus-Cost header, the JSON breakdown and the envelope buffer.
// Measured at 11 on every query of the test system; the engine-side
// counters are plain adds and allocate nothing, so growth here is a leak.
const maxExplainAllocs = 11

// TestExplainAllocationOverhead bounds what cost accounting adds to a
// query as a fixed allocation count instead of a wall-clock ratio: the
// same warm uncached /api/im request with and without &explain=1.
func TestExplainAllocationOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	_, sys := testServer(t)
	s := NewWith(sys, Options{CacheEntries: -1, TraceRing: -1})
	path := "/api/im?q=" + vocabKeyword(sys) + "&k=5"
	allocs := func(path string) float64 {
		w := &nopResponseWriter{h: make(http.Header)}
		r := httptest.NewRequest(http.MethodGet, path, nil)
		return testing.AllocsPerRun(50, func() { s.ServeHTTP(w, r) })
	}
	plain, explained := allocs(path), allocs(path+"&explain=1")
	if extra := explained - plain; extra > maxExplainAllocs {
		t.Errorf("explain adds %.1f allocations per query (%.1f vs %.1f plain), want ≤ %d",
			extra, explained, plain, maxExplainAllocs)
	}
}
