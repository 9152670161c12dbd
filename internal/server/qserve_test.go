package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/qcache"
)

// freshServer builds a small dedicated server so cache and metrics
// state is isolated per test.
func freshServer(t *testing.T, opt Options) (*Server, *core.System) {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 200, Topics: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewWith(sys, opt), sys
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	s, _ := freshServer(t, Options{})
	const path = "/api/im?q=data+mining&k=4"
	rec1, _ := get(t, s, path)
	if rec1.Code != http.StatusOK {
		t.Fatalf("first status = %d", rec1.Code)
	}
	if got := rec1.Header().Get("X-Octopus-Cache"); got != "miss" {
		t.Fatalf("first X-Octopus-Cache = %q, want miss", got)
	}
	rec2, _ := get(t, s, path)
	if got := rec2.Header().Get("X-Octopus-Cache"); got != "hit" {
		t.Fatalf("second X-Octopus-Cache = %q, want hit", got)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("cached response differs from computed response")
	}
	if g1, g2 := rec1.Header().Get("X-Octopus-Generation"), rec2.Header().Get("X-Octopus-Generation"); g1 != "1" || g2 != "1" {
		t.Fatalf("generations = %q, %q, want 1, 1", g1, g2)
	}
}

// An IM query that runs out of time is a 503, not a 200 carrying the
// seeds found so far, and it is never cached: the repeat runs again.
func TestTimedOutIMIsUnavailableAndUncached(t *testing.T) {
	s, _ := freshServer(t, Options{QueryTimeout: time.Nanosecond})
	const path = "/api/im?q=data+mining&k=10"
	for i := 0; i < 2; i++ {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status = %d, want 503; body=%v", i, rec.Code, body)
		}
		if got := rec.Header().Get("X-Octopus-Cache"); got != "miss" {
			t.Fatalf("request %d: X-Octopus-Cache = %q, want miss", i, got)
		}
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	s, _ := freshServer(t, Options{})
	// Parameter order and free-text shape must not defeat the cache:
	// both URLs tokenize to the same query.
	rec1, _ := get(t, s, "/api/im?q=data+mining&k=4")
	rec2, _ := get(t, s, "/api/im?k=4&q=Data%2C++MINING%21")
	if got := rec2.Header().Get("X-Octopus-Cache"); got != "hit" {
		t.Fatalf("normalized request X-Octopus-Cache = %q, want hit", got)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("normalized requests produced different bodies")
	}
	// A different k is a different answer — must not share an entry.
	rec3, _ := get(t, s, "/api/im?q=data+mining&k=5")
	if got := rec3.Header().Get("X-Octopus-Cache"); got != "miss" {
		t.Fatalf("different-k X-Octopus-Cache = %q, want miss", got)
	}
}

// TestCacheKeyNoCollisions pins the key's injectivity against the
// request shapes that once collided: smuggled separators inside a
// value, and repeated parameters where handlers only read the first.
func TestCacheKeyNoCollisions(t *testing.T) {
	s, _ := freshServer(t, Options{})
	rec1, _ := get(t, s, "/api/complete?prefix=A&k=5")
	if rec1.Code != http.StatusOK {
		t.Fatalf("prime status = %d", rec1.Code)
	}
	// k="5&prefix=A" as a single smuggled value is a malformed integer —
	// it must 400, never replay the primed 200.
	rec2, body := get(t, s, "/api/complete?k=5%26prefix%3DA")
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("smuggled-separator status = %d body=%v", rec2.Code, body)
	}
	// Repeated k: the handler reads the first value (7), so the k=5
	// entry must not be replayed.
	rec3, _ := get(t, s, "/api/complete?prefix=A&k=7&k=5")
	if rec3.Header().Get("X-Octopus-Cache") == "hit" && bytes.Equal(rec3.Body.Bytes(), rec1.Body.Bytes()) {
		t.Fatal("repeated-parameter request replayed the wrong entry")
	}
	var five, seven []any
	if err := json.Unmarshal(rec1.Body.Bytes(), &five); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec3.Body.Bytes(), &seven); err != nil {
		t.Fatal(err)
	}
	if len(seven) < len(five) {
		t.Fatalf("k=7 answer shorter than k=5 answer (%d vs %d)", len(seven), len(five))
	}
}

func TestCacheDisabled(t *testing.T) {
	s, _ := freshServer(t, Options{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		rec, _ := get(t, s, "/api/im?q=data&k=3")
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Octopus-Cache"); got != "bypass" {
			t.Fatalf("X-Octopus-Cache = %q, want bypass", got)
		}
	}
}

func TestErrorsNotCached(t *testing.T) {
	s, _ := freshServer(t, Options{})
	for i := 0; i < 2; i++ {
		rec, _ := get(t, s, "/api/suggest?user=Nobody+At+All")
		if rec.Code != http.StatusNotFound {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Octopus-Cache"); got == "hit" {
			t.Fatal("error response served from cache")
		}
	}
}

// TestSwapInvalidatesCache: after an ingest-driven snapshot swap a
// cached entry must never be replayed — the lookup reports stale and
// the answer is recomputed against the new generation.
func TestSwapInvalidatesCache(t *testing.T) {
	s, ls, sys := liveServer(t)
	const path = "/api/im?q=data+mining&k=4"
	rec, _ := get(t, s, path)
	if got := rec.Header().Get("X-Octopus-Cache"); got != "miss" {
		t.Fatalf("first X-Octopus-Cache = %q", got)
	}
	if rec, _ = get(t, s, path); rec.Header().Get("X-Octopus-Cache") != "hit" {
		t.Fatal("second request should hit")
	}
	if g := rec.Header().Get("X-Octopus-Generation"); g != "1" {
		t.Fatalf("generation = %q, want 1", g)
	}

	// Grow the graph and fold: generation bumps, cache entry dies.
	n := sys.Graph().NumNodes()
	recP, body := postJSON(t, s, "/api/ingest/edges", fmt.Sprintf(
		`{"edges":[{"src":3,"dst":%d,"dstName":"Swap Probe"}]}`, n))
	if recP.Code != http.StatusAccepted {
		t.Fatalf("ingest status = %d body = %v", recP.Code, body)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}

	rec, _ = get(t, s, path)
	if got := rec.Header().Get("X-Octopus-Cache"); got != "stale" {
		t.Fatalf("post-swap X-Octopus-Cache = %q, want stale", got)
	}
	if g := rec.Header().Get("X-Octopus-Generation"); g != "2" {
		t.Fatalf("post-swap generation = %q, want 2", g)
	}
	if rec, _ = get(t, s, path); rec.Header().Get("X-Octopus-Cache") != "hit" ||
		rec.Header().Get("X-Octopus-Generation") != "2" {
		t.Fatal("re-cached entry should hit at generation 2")
	}
}

// TestAdmissionControlSheds fills the gate and asserts the server
// answers 429 + Retry-After immediately instead of queueing.
func TestAdmissionControlSheds(t *testing.T) {
	s, _ := freshServer(t, Options{CacheEntries: -1, MaxInflight: 2})
	// Occupy both slots as in-flight engine runs would.
	if !s.gate.TryAcquire() || !s.gate.TryAcquire() {
		t.Fatal("could not fill the gate")
	}
	rec, body := get(t, s, "/api/im?q=data&k=3")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	// With no latency history the hint sits at the 1s floor.
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("cold Retry-After = %q, want 1", ra)
	}
	// Feed the endpoint a slow service-time history: the hint must grow
	// to the observed p99, rounded up — clients back off proportionally
	// to what the work actually costs.
	for i := 0; i < 50; i++ {
		s.metrics.Observe("im", qcache.StateMiss, http.StatusOK, 2500*time.Millisecond)
	}
	recSlow, _ := get(t, s, "/api/im?q=data&k=4")
	if recSlow.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", recSlow.Code)
	}
	if ra := recSlow.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("derived Retry-After = %q, want 3 (⌈p99⌉)", ra)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "capacity") {
		t.Fatalf("shed error payload = %v", body)
	}
	// Targeted queries flow through the same gate.
	recT, _ := postJSON(t, s, "/api/im/targeted", `{"q":"data","audience":[0,1,2],"k":2,"rrSamples":50}`)
	if recT.Code != http.StatusTooManyRequests {
		t.Fatalf("targeted status = %d, want 429", recT.Code)
	}
	// Releasing a slot restores service.
	s.gate.Release()
	if rec, _ := get(t, s, "/api/im?q=data&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("post-release status = %d", rec.Code)
	}
	s.gate.Release()

	// The sheds are visible in the metrics.
	_, m := get(t, s, "/api/metrics")
	eps := m["endpoints"].(map[string]any)
	if shed := eps["im"].(map[string]any)["shed"].(float64); shed != 2 {
		t.Fatalf("im shed = %v, want 2", shed)
	}
	if shed := eps["targeted"].(map[string]any)["shed"].(float64); shed != 1 {
		t.Fatalf("targeted shed = %v, want 1", shed)
	}
}

// TestCacheHitDoesNotNeedGate: a full gate must not block answers the
// cache already holds.
func TestCacheHitServedWhileGateFull(t *testing.T) {
	s, _ := freshServer(t, Options{MaxInflight: 1})
	const path = "/api/complete?prefix=A&k=2"
	if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
		t.Fatalf("prime status = %d", rec.Code)
	}
	if !s.gate.TryAcquire() {
		t.Fatal("could not fill the gate")
	}
	defer s.gate.Release()
	rec, _ := get(t, s, path)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Octopus-Cache") != "hit" {
		t.Fatalf("hit while gate full: status = %d cache = %q", rec.Code, rec.Header().Get("X-Octopus-Cache"))
	}
}

func TestConcurrentIdenticalQueriesShareOneBody(t *testing.T) {
	s, _ := freshServer(t, Options{})
	const n = 12
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/api/im?q=data+mining&k=3", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
				return
			}
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs", i)
		}
	}
	// Exactly one engine run is reflected in the metrics: hits +
	// coalesced + misses == n with misses == 1 (the flight leader; the
	// rest either coalesced onto it or hit the stored entry).
	_, m := get(t, s, "/api/metrics")
	im := m["endpoints"].(map[string]any)["im"].(map[string]any)
	if im["cacheMisses"].(float64) != 1 {
		t.Fatalf("misses = %v, want 1 (metrics: %v)", im["cacheMisses"], im)
	}
	total := im["cacheHits"].(float64) + im["coalesced"].(float64) + im["cacheMisses"].(float64)
	if total != n {
		t.Fatalf("hit+coalesced+miss = %v, want %d", total, n)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, sys := freshServer(t, Options{})
	user := sys.Graph().Name(0)
	req := fmt.Sprintf(`{"queries":[
		{"endpoint":"im","params":{"q":"data mining","k":"3"}},
		{"endpoint":"keywords","params":{"user":%q,"limit":"5"}},
		{"endpoint":"complete","params":{"prefix":"A","k":"3"}},
		{"endpoint":"bogus","params":{}},
		{"endpoint":"im","params":{"q":"data mining","k":"3"}}
	]}`, user)
	rec, _ := postJSON(t, s, "/api/batch", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d body = %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []struct {
			Status     int             `json:"status"`
			Cache      string          `json:"cache"`
			Generation uint64          `json:"generation"`
			Body       json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, want := range []int{200, 200, 200, 400, 200} {
		if resp.Results[i].Status != want {
			t.Fatalf("result %d status = %d, want %d (%s)", i, resp.Results[i].Status, want, resp.Results[i].Body)
		}
	}
	// Sub-queries run concurrently, so the duplicate may hit, coalesce
	// onto its twin, or (in a narrow window) compute independently — but
	// its body must be identical either way.
	switch resp.Results[4].Cache {
	case "hit", "coalesced", "miss":
	default:
		t.Fatalf("repeated query cache = %q", resp.Results[4].Cache)
	}
	if !bytes.Equal(resp.Results[4].Body, resp.Results[0].Body) {
		t.Fatal("duplicate sub-queries returned different bodies")
	}
	if resp.Results[0].Generation != 1 {
		t.Fatalf("generation = %d", resp.Results[0].Generation)
	}
	// A later batch repeating the query is deterministically a hit.
	rec2, _ := postJSON(t, s, "/api/batch", `{"queries":[{"endpoint":"im","params":{"q":"data mining","k":"3"}}]}`)
	var resp2 struct {
		Results []struct {
			Cache string `json:"cache"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Results[0].Cache != "hit" {
		t.Fatalf("second-batch cache = %q, want hit", resp2.Results[0].Cache)
	}
	// ...and is byte-identical to the standalone response (modulo JSON
	// compaction of the embedded RawMessage).
	single, _ := get(t, s, "/api/im?q=data+mining&k=3")
	var direct, embedded bytes.Buffer
	if err := json.Compact(&direct, single.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&embedded, resp.Results[0].Body); err != nil {
		t.Fatal(err)
	}
	if direct.String() != embedded.String() {
		t.Fatal("batch body differs from standalone body")
	}
}

func TestBatchRejectsBadRequests(t *testing.T) {
	s, _ := freshServer(t, Options{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"queries":[]}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
	} {
		rec, _ := postJSON(t, s, "/api/batch", tc.body)
		if rec.Code != tc.want {
			t.Errorf("body %q: status = %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
	// Over the batch-size limit.
	var b strings.Builder
	b.WriteString(`{"queries":[`)
	for i := 0; i <= maxBatchQueries; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"endpoint":"complete","params":{"prefix":"A"}}`)
	}
	b.WriteString(`]}`)
	rec, body := postJSON(t, s, "/api/batch", b.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d", rec.Code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "limit") {
		t.Fatalf("oversized batch error = %q", msg)
	}
}

func TestTargetedEndpoint(t *testing.T) {
	s, sys := freshServer(t, Options{})
	rec, body := postJSON(t, s, "/api/im/targeted",
		`{"q":"data mining","audience":[0,1,2,3,4,5,6,7],"k":3,"rrSamples":2000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %v", rec.Code, body)
	}
	seeds := body["seeds"].([]any)
	if len(seeds) == 0 || len(seeds) > 3 {
		t.Fatalf("seeds = %v", seeds)
	}
	if body["audienceSpread"].(float64) <= 0 {
		t.Fatalf("audienceSpread = %v", body["audienceSpread"])
	}
	if len(body["gamma"].([]any)) != sys.Keywords().NumTopics() {
		t.Fatalf("gamma = %v", body["gamma"])
	}
	// Identical requests give identical answers (fixed default seed).
	rec2, _ := postJSON(t, s, "/api/im/targeted",
		`{"q":"data mining","audience":[0,1,2,3,4,5,6,7],"k":3,"rrSamples":2000}`)
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("identical targeted requests gave different answers")
	}
	// Explicit keyword list bypasses tokenization.
	rec3, _ := postJSON(t, s, "/api/im/targeted",
		`{"keywords":["data","mining"],"audience":[0,1,2],"k":2,"rrSamples":500}`)
	if rec3.Code != http.StatusOK {
		t.Fatalf("keywords status = %d", rec3.Code)
	}
}

// A k far beyond the node count is clamped to it, not used to size the
// seed list: it once panicked in the allocation.
func TestTargetedHugeKClamped(t *testing.T) {
	s, sys := freshServer(t, Options{})
	rec, body := postJSON(t, s, "/api/im/targeted",
		`{"q":"data mining","audience":[0,1,2,3,4,5,6,7],"k":4000000000000000000,"rrSamples":500}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %v", rec.Code, body)
	}
	if seeds := body["seeds"].([]any); len(seeds) == 0 || len(seeds) > sys.Graph().NumNodes() {
		t.Fatalf("got %d seeds for a graph of %d nodes", len(seeds), sys.Graph().NumNodes())
	}
}

func TestTargetedRejectsBadRequests(t *testing.T) {
	s, sys := freshServer(t, Options{})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"bad json", `{nope`, http.StatusBadRequest},
		{"no keywords", `{"audience":[0,1]}`, http.StatusBadRequest},
		{"empty audience", `{"q":"data","audience":[]}`, http.StatusBadRequest},
		{"audience out of range", fmt.Sprintf(`{"q":"data","audience":[%d]}`, sys.Graph().NumNodes()+5), http.StatusBadRequest},
		{"negative audience member", `{"q":"data","audience":[-1]}`, http.StatusBadRequest},
		{"rrSamples over limit", `{"q":"data","audience":[0],"rrSamples":99000000}`, http.StatusBadRequest},
	} {
		rec, body := postJSON(t, s, "/api/im/targeted", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%v)", tc.name, rec.Code, tc.want, body)
		}
	}
	// Wrong method.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/im/targeted", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET targeted: status = %d Allow = %q", rec.Code, rec.Header().Get("Allow"))
	}
}

func TestTargetedOnLiveServer(t *testing.T) {
	s, _, _ := liveServer(t)
	rec, body := postJSON(t, s, "/api/im/targeted",
		`{"q":"data","audience":[0,1,2,3],"k":2,"rrSamples":500}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %v", rec.Code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := freshServer(t, Options{MaxInflight: 7})
	get(t, s, "/api/im?q=data&k=3")
	get(t, s, "/api/im?q=data&k=3")
	get(t, s, "/api/status")
	rec, m := get(t, s, "/api/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if m["generation"].(float64) != 1 {
		t.Fatalf("generation = %v", m["generation"])
	}
	if m["maxInflight"].(float64) != 7 {
		t.Fatalf("maxInflight = %v", m["maxInflight"])
	}
	if m["cacheEntries"].(float64) != 1 {
		t.Fatalf("cacheEntries = %v", m["cacheEntries"])
	}
	eps := m["endpoints"].(map[string]any)
	im := eps["im"].(map[string]any)
	if im["count"].(float64) != 2 || im["cacheHits"].(float64) != 1 || im["cacheMisses"].(float64) != 1 {
		t.Fatalf("im metrics = %v", im)
	}
	if im["p50Millis"].(float64) < 0 || im["p99Millis"].(float64) < im["p50Millis"].(float64) {
		t.Fatalf("latency quantiles = %v", im)
	}
	if _, ok := eps["status"]; !ok {
		t.Fatal("status endpoint not metered")
	}
}
