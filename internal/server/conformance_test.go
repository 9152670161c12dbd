package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/store"
)

// The HTTP conformance suite: one table covering every route, run
// against every shape Open assembles — static over the heap and over a
// store.Map mapping, live, durable live, replica, and a 1-shard
// coordinator — happy paths with golden JSON field checks, missing and
// malformed parameters, unknown-entity 404s, 405 + Allow on wrong
// methods, and HEAD piggybacking on GET. A case names a per-shape
// status only where that shape answers differently.

// richUser returns the name of a user with several keywords.
func richUser(sys *core.System) string {
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if len(sys.UserKeywords(graph.NodeID(u))) >= 3 {
			return sys.Graph().Name(graph.NodeID(u))
		}
	}
	return sys.Graph().Name(0)
}

// vocabKeyword returns a keyword guaranteed to be in the model
// vocabulary (taken from a user's observed pool).
func vocabKeyword(sys *core.System) string {
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if kws := sys.UserKeywords(graph.NodeID(u)); len(kws) > 0 {
			return kws[0]
		}
	}
	return "mining"
}

func hubName(sys *core.System) string {
	best, bestDeg := graph.NodeID(0), -1
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if d := sys.Graph().OutDegree(graph.NodeID(u)); d > bestDeg {
			best, bestDeg = graph.NodeID(u), d
		}
	}
	return sys.Graph().Name(best)
}

type confCase struct {
	name   string
	method string
	path   func(sys *core.System) string
	body   string
	want   int // expected status on the static server
	// wantLive overrides want on the live and durable servers (0 = same).
	wantLive int
	// wantReplica overrides want on the replica server (0 = wantLive,
	// or want when that is 0 too).
	wantReplica int
	// wantMapped overrides want on the static server over a mapping.
	wantMapped int
	// wantCoord overrides want on the coordinator.
	wantCoord int
	// allow is the expected Allow header for 405 cases.
	allow string
	// keys must be present in a JSON-object success body.
	keys []string
	// array requires a success body to be a JSON array.
	array bool
	// errSub must appear in the error payload.
	errSub string
}

func confPath(p string) func(*core.System) string {
	return func(*core.System) string { return p }
}

func conformanceCases() []confCase {
	kw := func(sys *core.System) string { return url.QueryEscape(vocabKeyword(sys)) }
	user := func(sys *core.System) string { return url.QueryEscape(richUser(sys)) }
	hub := func(sys *core.System) string { return url.QueryEscape(hubName(sys)) }
	return []confCase{
		// ---- /api/status ----
		{name: "status ok", method: "GET", path: confPath("/api/status"), want: 200,
			keys: []string{"Nodes", "Edges", "Topics", "Vocabulary"}},
		{name: "status 405", method: "POST", path: confPath("/api/status"), want: 405, allow: "GET"},

		// ---- /api/im ----
		{name: "im ok", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=3" },
			want: 200, keys: []string{"query", "gamma", "topics", "seeds", "stats"}},
		{name: "im missing q", method: "GET", path: confPath("/api/im"), want: 400, errSub: "missing required parameter: q"},
		{name: "im stopword-only q", method: "GET", path: confPath("/api/im?q=the+of+and"), want: 400, errSub: "q"},
		{name: "im malformed k", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=ten" },
			want: 400, errSub: "parameter"},
		{name: "im zero k", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=0" },
			want: 400, errSub: `parameter "k"`},
		{name: "im negative k", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=-1" },
			want: 400, errSub: `parameter "k"`},
		{name: "im malformed theta", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&theta=0..5" },
			want: 400, errSub: "theta"},
		{name: "im 405", method: "DELETE", path: confPath("/api/im?q=x"), want: 405, allow: "GET"},

		// ---- /api/suggest ----
		{name: "suggest ok", method: "GET",
			path: func(s *core.System) string { return "/api/suggest?user=" + user(s) + "&k=2" },
			want: 200, keys: []string{"user", "keywords", "gamma", "spread", "singles"}},
		{name: "suggest missing user", method: "GET", path: confPath("/api/suggest"), want: 400, errSub: "user"},
		{name: "suggest unknown user", method: "GET", path: confPath("/api/suggest?user=No+Such+Person+Ever"), want: 404},
		{name: "suggest digit-led unknown user", method: "GET", path: confPath("/api/suggest?user=3rd+author"), want: 404},
		{name: "suggest malformed coherence", method: "GET",
			path: func(s *core.System) string { return "/api/suggest?user=" + user(s) + "&coherence=x" },
			want: 400, errSub: "coherence"},
		{name: "suggest 405", method: "PUT", path: confPath("/api/suggest?user=0"), want: 405, allow: "GET"},

		// ---- /api/keywords ----
		{name: "keywords ok", method: "GET",
			path: func(s *core.System) string { return "/api/keywords?user=" + user(s) + "&limit=5" },
			want: 200, array: true},
		{name: "keywords missing user", method: "GET", path: confPath("/api/keywords"), want: 400, errSub: "user"},
		{name: "keywords unknown user", method: "GET", path: confPath("/api/keywords?user=No+Such+Person+Ever"), want: 404},
		{name: "keywords digit-led unknown user", method: "GET", path: confPath("/api/keywords?user=3rd+author"), want: 404},
		{name: "keywords malformed limit", method: "GET",
			path: func(s *core.System) string { return "/api/keywords?user=" + user(s) + "&limit=many" },
			want: 400, errSub: "limit"},
		{name: "keywords 405", method: "POST", path: confPath("/api/keywords?user=0"), want: 405, allow: "GET"},

		// ---- /api/radar ----
		{name: "radar ok", method: "GET",
			path: func(s *core.System) string { return "/api/radar?keyword=" + kw(s) },
			want: 200, keys: []string{"Keyword", "Topics", "Values"}},
		{name: "radar missing keyword", method: "GET", path: confPath("/api/radar"), want: 400, errSub: "keyword"},
		{name: "radar unknown keyword", method: "GET", path: confPath("/api/radar?keyword=zzzzzzzz"), want: 404},
		{name: "radar 405", method: "POST", path: confPath("/api/radar?keyword=x"), want: 405, allow: "GET"},

		// ---- /api/paths ----
		{name: "paths ok", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&theta=0.005" },
			want: 200, keys: []string{"root", "forward", "theta", "spread", "nodes", "links"}},
		{name: "paths reverse ok", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&reverse=1" },
			want: 200, keys: []string{"root", "nodes"}},
		{name: "paths missing user", method: "GET", path: confPath("/api/paths"), want: 400, errSub: "user"},
		{name: "paths unknown user", method: "GET", path: confPath("/api/paths?user=No+Such+Person+Ever"), want: 404},
		{name: "paths digit-led unknown user", method: "GET", path: confPath("/api/paths?user=3rd+author"), want: 404},
		{name: "paths malformed theta", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&theta=high" },
			want: 400, errSub: "theta"},
		{name: "paths malformed highlight", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&highlight=first" },
			want: 400, errSub: "highlight"},
		{name: "paths highlight outside tree", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&highlight=999999" },
			want: 404},
		{name: "paths 405", method: "POST", path: confPath("/api/paths?user=0"), want: 405, allow: "GET"},

		// ---- /api/complete ----
		{name: "complete ok", method: "GET",
			path: func(s *core.System) string { return "/api/complete?prefix=" + url.QueryEscape(s.Graph().Name(0)[:1]) },
			want: 200, array: true},
		{name: "complete missing prefix", method: "GET", path: confPath("/api/complete"), want: 400, errSub: "prefix"},
		{name: "complete malformed k", method: "GET", path: confPath("/api/complete?prefix=a&k=1.5"), want: 400, errSub: "k"},
		{name: "complete 405", method: "POST", path: confPath("/api/complete?prefix=a"), want: 405, allow: "GET"},

		// ---- /api/owners ----
		{name: "owners ok", method: "GET", path: confPath("/api/owners"), want: 200, wantCoord: 404, array: true},
		{name: "owners 405", method: "POST", path: confPath("/api/owners"), want: 405, allow: "GET"},

		// ---- /api/metrics ----
		{name: "metrics ok", method: "GET", path: confPath("/api/metrics"), want: 200,
			keys: []string{"endpoints", "requests", "generation", "uptimeSeconds"}},
		{name: "metrics 405", method: "POST", path: confPath("/api/metrics"), want: 405, allow: "GET"},

		// ---- /metrics (Prometheus exposition; the one non-JSON API route) ----
		{name: "prom metrics ok", method: "GET", path: confPath("/metrics"), want: 200},
		{name: "prom metrics 405", method: "POST", path: confPath("/metrics"), want: 405, allow: "GET"},

		// ---- ?explain=1 cost accounting (every read endpoint) ----
		{name: "im explain ok", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=3&explain=1" },
			want: 200, keys: []string{"result", "cost"}},
		{name: "im explain off is plain", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&k=3&explain=0" },
			want: 200, keys: []string{"query", "gamma", "seeds"}},
		{name: "im malformed explain", method: "GET",
			path: func(s *core.System) string { return "/api/im?q=" + kw(s) + "&explain=yes" },
			want: 400, errSub: "explain"},
		{name: "suggest explain ok", method: "GET",
			path: func(s *core.System) string { return "/api/suggest?user=" + user(s) + "&k=2&explain=1" },
			want: 200, keys: []string{"result", "cost"}},
		{name: "paths explain ok", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&explain=1" },
			want: 200, keys: []string{"result", "cost"}},
		{name: "paths malformed explain", method: "GET",
			path: func(s *core.System) string { return "/api/paths?user=" + hub(s) + "&explain=2" },
			want: 400, errSub: "explain"},

		// ---- /api/health ----
		{name: "health ok", method: "GET", path: confPath("/api/health"), want: 200,
			keys: []string{"state", "generation", "burnThreshold", "reasons", "objectives"}},
		{name: "health 405", method: "POST", path: confPath("/api/health"), want: 405, allow: "GET"},

		// ---- /api/debug/diag ----
		{name: "diag ok", method: "GET", path: confPath("/api/debug/diag"), want: 200,
			keys: []string{"bundles"}},
		{name: "diag 405", method: "DELETE", path: confPath("/api/debug/diag"), want: 405, allow: "GET"},

		// ---- /api/debug/traces ----
		{name: "traces ok", method: "GET", path: confPath("/api/debug/traces"), want: 200,
			keys: []string{"traces"}},
		{name: "traces bounded", method: "GET", path: confPath("/api/debug/traces?n=2"), want: 200,
			keys: []string{"traces"}},
		{name: "traces malformed n", method: "GET", path: confPath("/api/debug/traces?n=many"),
			want: 400, errSub: "n"},
		{name: "traces negative n", method: "GET", path: confPath("/api/debug/traces?n=-1"),
			want: 400, errSub: "n"},
		{name: "traces 405", method: "DELETE", path: confPath("/api/debug/traces"), want: 405, allow: "GET"},

		// ---- /api/batch ----
		{name: "batch ok", method: "POST", path: confPath("/api/batch"),
			body: `{"queries":[{"endpoint":"complete","params":{"prefix":"A"}}]}`,
			want: 200, keys: []string{"results"}},
		{name: "batch bad json", method: "POST", path: confPath("/api/batch"), body: `{oops`, want: 400, errSub: "JSON"},
		{name: "batch empty", method: "POST", path: confPath("/api/batch"), body: `{"queries":[]}`, want: 400},
		{name: "batch 405", method: "GET", path: confPath("/api/batch"), want: 405, allow: "POST"},

		// ---- /api/im/targeted ----
		{name: "targeted ok", method: "POST", path: confPath("/api/im/targeted"),
			body: func() string { return `{"q":"QQQ","audience":[0,1,2],"k":2,"rrSamples":200}` }(),
			want: 200, keys: []string{"query", "gamma", "topics", "seeds", "audienceSpread"}},
		{name: "targeted bad json", method: "POST", path: confPath("/api/im/targeted"), body: `{oops`, want: 400, errSub: "JSON"},
		{name: "targeted empty audience", method: "POST", path: confPath("/api/im/targeted"),
			body: `{"q":"data","audience":[]}`, want: 400, errSub: "audience"},
		{name: "targeted explain", method: "POST", path: confPath("/api/im/targeted?explain=1"),
			body: `{"q":"data","audience":[0,1,2],"k":2,"rrSamples":200}`,
			want: 200, keys: []string{"result", "cost"}},
		{name: "targeted explain empty audience", method: "POST", path: confPath("/api/im/targeted?explain=1"),
			body: `{"q":"data","audience":[]}`, want: 400, errSub: "audience"},
		{name: "targeted 405", method: "GET", path: confPath("/api/im/targeted"), want: 405, allow: "POST"},

		// ---- ingest (live-only; 404 on static) ----
		{name: "ingest actions", method: "POST", path: confPath("/api/ingest/actions"),
			body: `{"items":[{"id":770001,"keywords":["conformance"]}],"actions":[{"user":0,"item":770001,"time":5}]}`,
			want: 404, wantLive: 202, wantReplica: 403},
		{name: "ingest actions bad json", method: "POST", path: confPath("/api/ingest/actions"),
			body: `{oops`, want: 404, wantLive: 400, wantReplica: 403},
		{name: "ingest actions empty", method: "POST", path: confPath("/api/ingest/actions"),
			body: `{"items":[],"actions":[]}`, want: 404, wantLive: 400, wantReplica: 403},
		{name: "ingest actions 405", method: "GET", path: confPath("/api/ingest/actions"), want: 405, allow: "POST"},
		{name: "ingest edges", method: "POST", path: confPath("/api/ingest/edges"),
			body: `{"edges":[{"src":0,"dst":190}]}`, want: 404, wantLive: 202, wantReplica: 403},
		{name: "ingest edges empty", method: "POST", path: confPath("/api/ingest/edges"),
			body: `{"edges":[]}`, want: 404, wantLive: 400, wantReplica: 403},
		{name: "ingest edges 405", method: "GET", path: confPath("/api/ingest/edges"), want: 405, allow: "POST"},
		{name: "ingest stats", method: "GET", path: confPath("/api/ingest/stats"),
			want: 404, wantLive: 200, wantMapped: 200},
		{name: "ingest stats 405", method: "POST", path: confPath("/api/ingest/stats"), want: 405, allow: "GET"},

		// ---- UI and unknown paths ----
		{name: "ui root", method: "GET", path: confPath("/"), want: 200},
		{name: "unknown path", method: "GET", path: confPath("/definitely/not/here"), want: 404},
	}
}

// status is the code shape answers tc with.
func (tc confCase) status(shape string) int {
	var overrides []int
	switch shape {
	case "live", "durable":
		overrides = []int{tc.wantLive}
	case "replica":
		overrides = []int{tc.wantReplica, tc.wantLive}
	case "mapped":
		overrides = []int{tc.wantMapped}
	case "coordinator":
		overrides = []int{tc.wantCoord}
	}
	for _, w := range overrides {
		if w != 0 {
			return w
		}
	}
	return tc.want
}

func runConformance(t *testing.T, label string, s *Server, sys *core.System) {
	t.Helper()
	for _, tc := range conformanceCases() {
		tc := tc
		t.Run(label+"/"+tc.name, func(t *testing.T) {
			path := tc.path(sys)
			var req *http.Request
			if tc.body != "" {
				req = httptest.NewRequest(tc.method, path, strings.NewReader(tc.body))
				req.Header.Set("Content-Type", "application/json")
			} else {
				req = httptest.NewRequest(tc.method, path, nil)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)

			want := tc.status(label)
			if rec.Code != want {
				t.Fatalf("%s %s = %d, want %d (body: %s)", tc.method, path, rec.Code, want, rec.Body.String())
			}
			if tc.allow != "" {
				if got := rec.Header().Get("Allow"); got != tc.allow {
					t.Fatalf("Allow = %q, want %q", got, tc.allow)
				}
			}
			ct := rec.Header().Get("Content-Type")
			isJSON := strings.HasPrefix(ct, "application/json")
			if rec.Code >= 400 && path != "/definitely/not/here" && !isJSON {
				t.Fatalf("error response Content-Type = %q, want JSON", ct)
			}
			if tc.errSub != "" {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("error payload not JSON: %v (%s)", err, rec.Body.String())
				}
				if !strings.Contains(e.Error, tc.errSub) {
					t.Fatalf("error %q does not mention %q", e.Error, tc.errSub)
				}
			}
			if tc.array && rec.Code < 400 {
				var v []any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("expected JSON array: %v (%s)", err, rec.Body.String())
				}
			}
			if len(tc.keys) > 0 && rec.Code < 400 {
				var v map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Fatalf("expected JSON object: %v (%s)", err, rec.Body.String())
				}
				for _, k := range tc.keys {
					if _, ok := v[k]; !ok {
						t.Fatalf("response missing field %q (got keys %v)", k, mapKeys(v))
					}
				}
			}
			// GET success responses must also answer HEAD with the same
			// status (body handling is the transport's business).
			if tc.method == "GET" && rec.Code == 200 {
				hrec := httptest.NewRecorder()
				s.ServeHTTP(hrec, httptest.NewRequest(http.MethodHead, path, nil))
				if hrec.Code != rec.Code {
					t.Fatalf("HEAD %s = %d, want %d", path, hrec.Code, rec.Code)
				}
			}
		})
	}
}

func mapKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestConformanceStatic(t *testing.T) {
	_, sys := testServer(t)
	runConformance(t, "static", openNode(t, Deployment{Base: baseOf(sys)}).Server, sys)
}

func TestConformanceMapped(t *testing.T) {
	_, sys := testServer(t)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := store.Save(path, sys); err != nil {
		t.Fatal(err)
	}
	n := openNode(t, Deployment{Base: func() (*core.System, *store.Mapped, error) {
		return store.Map(path, store.MapOptions{})
	}})
	runConformance(t, "mapped", n.Server, sys)
}

func TestConformanceLive(t *testing.T) {
	s, _, sys := liveServer(t)
	runConformance(t, "live", s, sys)
}

func TestConformanceDurable(t *testing.T) {
	s, ls := durableLiveServer(t, Options{})
	runConformance(t, "durable", s, ls.System())
}

func TestConformanceReplica(t *testing.T) {
	leader, ls := durableLiveServer(t, Options{})
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader)
	t.Cleanup(ts.Close)
	n := openNode(t, Deployment{Follow: ts.URL, Dir: t.TempDir()})
	waitReady(t, n.Server.follower)
	runConformance(t, "replica", n.Server, ls.System())
}

func TestConformanceCoordinator(t *testing.T) {
	_, sys := testServer(t)
	shard := httptest.NewServer(openNode(t, Deployment{Base: baseOf(sys)}).Server)
	t.Cleanup(shard.Close)
	n := openNode(t, Deployment{Coordinator: true, ShardAddrs: []string{shard.URL}})
	runConformance(t, "coordinator", n.Server, sys)
}

// TestConformanceCasesCoverEveryRoute pins the sweep to the route
// table: adding an endpoint without conformance cases fails here.
func TestConformanceCasesCoverEveryRoute(t *testing.T) {
	s, sys := testServer(t)
	covered := map[string]bool{}
	for _, tc := range conformanceCases() {
		u, err := url.Parse(tc.path(sys))
		if err != nil {
			t.Fatal(err)
		}
		covered[u.Path] = true
	}
	for _, route := range []string{
		"/api/status", "/api/im", "/api/suggest", "/api/keywords", "/api/radar",
		"/api/paths", "/api/complete", "/api/metrics", "/api/batch", "/api/im/targeted",
		"/api/ingest/actions", "/api/ingest/edges", "/api/ingest/stats",
		"/metrics", "/api/health", "/api/debug/traces", "/api/debug/diag", "/",
	} {
		if !covered[route] {
			t.Errorf("route %s has no conformance cases", route)
		}
	}
	_ = s
}
