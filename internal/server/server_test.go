package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
)

var (
	srvOnce sync.Once
	srvVal  *Server
	srvSys  *core.System
	srvErr  error
)

func testServer(t testing.TB) (*Server, *core.System) {
	t.Helper()
	srvOnce.Do(func() {
		ds, err := datagen.Citation(datagen.CitationConfig{
			Authors: 300, Topics: 4, Papers: 400, Seed: 21,
		})
		if err != nil {
			srvErr = err
			return
		}
		sys, err := core.Build(ds.Graph, ds.Log, core.Config{
			GroundTruth:      ds.Truth,
			GroundTruthWords: ds.TruthWords,
			TopicNames:       ds.TopicNames,
			Seed:             3,
		})
		if err != nil {
			srvErr = err
			return
		}
		srvSys = sys
		srvVal = NewWith(sys, Options{})
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvVal, srvSys
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
	}
	return rec, body
}

func TestStatus(t *testing.T) {
	s, sys := testServer(t)
	rec, body := get(t, s, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if int(body["Nodes"].(float64)) != sys.Graph().NumNodes() {
		t.Fatalf("body = %v", body)
	}
}

func TestIMEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/im?q=data+mining&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%v", rec.Code, body)
	}
	seeds := body["seeds"].([]any)
	if len(seeds) != 5 {
		t.Fatalf("seeds = %v", seeds)
	}
	first := seeds[0].(map[string]any)
	if first["name"] == "" || first["spread"].(float64) <= 0 {
		t.Fatalf("seed payload = %v", first)
	}
	if _, ok := body["gamma"]; !ok {
		t.Fatal("missing gamma")
	}
}

func TestIMMissingQuery(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/im")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["error"] == nil {
		t.Fatal("no error payload")
	}
}

func TestSuggestEndpoint(t *testing.T) {
	s, sys := testServer(t)
	// Pick a keyword-rich user by name.
	var name string
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if len(sys.UserKeywords(graph.NodeID(u))) >= 3 {
			name = sys.Graph().Name(graph.NodeID(u))
			break
		}
	}
	if name == "" {
		t.Skip("no keyword-rich user")
	}
	rec, body := get(t, s, "/api/suggest?user="+url.QueryEscape(name)+"&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body = %v", rec.Code, body)
	}
	if body["user"].(string) != name {
		t.Fatalf("user = %v", body["user"])
	}
}

func TestSuggestUnknownUser(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := get(t, s, "/api/suggest?user=Nobody+Anywhere")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestKeywordsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := get(t, s, "/api/keywords?user=0&limit=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestRadarEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/radar?keyword=mining")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["Keyword"].(string) != "mining" {
		t.Fatalf("radar = %v", body)
	}
	rec, _ = get(t, s, "/api/radar?keyword=zzzz")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown keyword status = %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/radar")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing keyword status = %d", rec.Code)
	}
}

func TestPathsEndpoint(t *testing.T) {
	s, sys := testServer(t)
	// hub user
	var root graph.NodeID
	best := -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if d := sys.Graph().OutDegree(graph.NodeID(u)); d > best {
			best, root = d, graph.NodeID(u)
		}
	}
	name := sys.Graph().Name(root)
	rec, body := get(t, s, "/api/paths?user="+url.QueryEscape(name)+"&theta=0.005")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%v", rec.Code, body)
	}
	nodes := body["nodes"].([]any)
	if len(nodes) < 2 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	// Click-highlight the second node.
	n1 := nodes[1].(map[string]any)
	id := int(n1["id"].(float64))
	rec, body = get(t, s, "/api/paths?user="+url.QueryEscape(name)+"&theta=0.005&highlight="+itoa(id))
	if rec.Code != http.StatusOK {
		t.Fatalf("highlight status = %d", rec.Code)
	}
	if body["highlight"] == nil {
		t.Fatal("missing highlight payload")
	}
	// Reverse exploration.
	rec, _ = get(t, s, "/api/paths?user="+url.QueryEscape(name)+"&reverse=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("reverse status = %d", rec.Code)
	}
}

// A path request at the smallest θ the parser takes is answered like
// any other, in both directions: 200, capped at max nodes, every node's
// probability at or above θ. The MIA frontier does not size itself
// from θ, so such a request costs no more storage than θ = 0.01.
func TestPathsTinyTheta(t *testing.T) {
	s, sys := testServer(t)
	name := url.QueryEscape(hubName(sys))
	for _, rev := range []string{"", "&reverse=1"} {
		rec, body := get(t, s, "/api/paths?user="+name+"&theta=1e-300&max=50"+rev)
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status = %d body=%s", rev, rec.Code, rec.Body)
		}
		nodes, _ := body["nodes"].([]any)
		if len(nodes) == 0 || len(nodes) > 50 {
			t.Fatalf("%q: %d nodes, want 1..50", rev, len(nodes))
		}
		for _, n := range nodes {
			if p := n.(map[string]any)["prob"].(float64); !(p >= 1e-300) {
				t.Fatalf("%q: node prob %v below θ", rev, p)
			}
		}
	}
}

func TestCompleteEndpoint(t *testing.T) {
	s, sys := testServer(t)
	prefix := sys.Graph().Name(0)[:2]
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/complete?prefix="+url.QueryEscape(prefix), nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var comps []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &comps); err != nil {
		t.Fatal(err)
	}
	if len(comps) == 0 {
		t.Fatalf("no completions for %q", prefix)
	}
	rec, _ = get(t, s, "/api/complete")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing prefix status = %d", rec.Code)
	}
}

func TestUIServed(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"OCTOPUS", "/api/im", "/api/paths", "Scenario 3"} {
		if !strings.Contains(body, want) {
			t.Fatalf("UI missing %q", want)
		}
	}
	// Unknown paths under / must 404, not serve the UI.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec.Code)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, _ := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{
				"/api/im?q=data+mining&k=3",
				"/api/status",
				"/api/radar?keyword=mining",
				"/api/complete?prefix=A",
			}
			rec, _ := get(t, s, paths[i%len(paths)])
			if rec.Code != http.StatusOK {
				t.Errorf("path %s: status %d", paths[i%len(paths)], rec.Code)
			}
		}(i)
	}
	wg.Wait()
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/api/im?q=data", http.MethodGet},
		{http.MethodDelete, "/api/status", http.MethodGet},
		{http.MethodPut, "/api/paths?user=0", http.MethodGet},
		{http.MethodGet, "/api/ingest/actions", http.MethodPost},
		{http.MethodGet, "/api/ingest/edges", http.MethodPost},
		{http.MethodPost, "/api/ingest/stats", http.MethodGet},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
	// HEAD piggybacks on GET handlers.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/api/status", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("HEAD /api/status: status = %d", rec.Code)
	}
}

func TestIngestDisabledOnStaticServer(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/api/ingest/edges",
		strings.NewReader(`{"edges":[{"src":0,"dst":1}]}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

// TestIMSeedsNeverNull pins the contract that an empty seed list
// serializes as [] rather than null.
func TestIMSeedsNeverNull(t *testing.T) {
	_, sys := testServer(t)
	resp := newIMResponse(sys, []string{"data"}, &core.DiscoverResult{})
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"seeds":[]`) {
		t.Fatalf("empty seeds serialized as %s", raw)
	}
}

func itoa(i int) string {
	b := []byte{}
	if i == 0 {
		return "0"
	}
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// Malformed query/suggest/paths parameters must be rejected with 400 —
// previously ?k=ten silently fell back to the default, hiding client
// bugs behind plausible answers.
func TestMalformedParamsRejected(t *testing.T) {
	s, sys := testServer(t)
	user := url.QueryEscape(sys.Graph().Name(0))
	cases := []string{
		"/api/im?q=data&k=ten",
		"/api/im?q=data&theta=0..5",
		"/api/im?q=data&theta=NaN",
		"/api/im?q=data&theta=Inf",
		"/api/suggest?user=" + user + "&k=three",
		"/api/suggest?user=" + user + "&coherence=x",
		"/api/suggest?user=" + user + "&coherence=NaN",
		"/api/keywords?user=" + user + "&limit=many",
		"/api/paths?user=" + user + "&theta=high",
		"/api/paths?user=" + user + "&theta=NaN",
		"/api/paths?user=" + user + "&max=1e",
		"/api/paths?user=" + user + "&highlight=first",
		"/api/complete?prefix=a&k=1.5",
	}
	for _, path := range cases {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
			continue
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "parameter") {
			t.Errorf("GET %s: error payload %q does not name the parameter", path, msg)
		}
	}
}

// Well-formed but out-of-range path options are 400s: θ ≤ 0 used to be
// widened to a near-zero threshold (the whole reachable graph) and a
// negative max lifted the node cap.
func TestPathsOutOfRangeRejected(t *testing.T) {
	s, sys := testServer(t)
	user := url.QueryEscape(sys.Graph().Name(0))
	for _, q := range []string{"theta=-1", "theta=1", "max=-1"} {
		path := "/api/paths?user=" + user + "&" + q
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
			continue
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("GET %s: no error message", path)
		}
	}
}

// Well-formed values for the same parameters keep working.
func TestWellFormedParamsAccepted(t *testing.T) {
	s, sys := testServer(t)
	user := url.QueryEscape(sys.Graph().Name(0))
	for _, path := range []string{
		"/api/im?q=data&k=3&theta=0.05",
		"/api/suggest?user=" + user + "&k=2&coherence=0.1",
		"/api/keywords?user=" + user + "&limit=5",
		"/api/paths?user=" + user + "&theta=0.05&max=40",
		"/api/complete?prefix=a&k=3",
	} {
		rec, _ := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
