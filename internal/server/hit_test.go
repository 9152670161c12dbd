package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"octopus/internal/core"
	"octopus/internal/stream"
)

// hitPaths are the cached reads the hit-path gates and benchmarks
// replay: a keyword IM query, a suggestion and a path exploration.
func hitPaths(sys *core.System) []struct{ name, path string } {
	kw := url.QueryEscape(vocabKeyword(sys))
	return []struct{ name, path string }{
		{"im", "/api/im?q=" + kw + "+mining&k=3"},
		{"suggest", "/api/suggest?user=" + url.QueryEscape(richUser(sys)) + "&k=2"},
		{"paths", "/api/paths?user=" + url.QueryEscape(hubName(sys)) + "&theta=0.005"},
	}
}

// hitBudgets are the allocations a warm cache hit may cost through
// ServeHTTP, traced (default Options) and untraced (TraceRing -1). A
// hit parses the query string once (url.Values: the map, one slice per
// parameter, unescaped values), and a traced hit adds its trace id and
// the X-Octopus-Trace header slice; the key, the lookup, the replayed
// headers, the spans and the published trace allocate nothing.
var hitBudgets = []struct {
	name   string
	opt    Options
	budget float64
}{
	{"traced", Options{}, 7},
	{"untraced", Options{TraceRing: -1}, 5},
}

// TestCachedHitAllocs gates the allocations of a warm cache hit on a
// static server, and holds a live server over the same system to the
// static server's count: pinning a live snapshot allocates nothing.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	_, sys := testServer(t)
	ls, err := stream.NewLiveSystem(sys, stream.Config{RebuildEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ls.Close() })
	for _, b := range hitBudgets {
		static, live := NewWith(sys, b.opt), NewWith(ls, b.opt)
		for _, p := range hitPaths(sys) {
			allocs := hitAllocs(t, static, p.path)
			if allocs > b.budget {
				t.Errorf("%s %s hit: %.1f allocs, want ≤ %.0f", b.name, p.name, allocs, b.budget)
			} else {
				t.Logf("%s %s hit: %.1f allocs (budget %.0f)", b.name, p.name, allocs, b.budget)
			}
			if got := hitAllocs(t, live, p.path); got > allocs {
				t.Errorf("%s %s live hit: %.1f allocs, want ≤ %.0f (static)", b.name, p.name, got, allocs)
			}
		}
	}
}

// hitAllocs fills the cache with one request for path, then returns the
// allocations of a warm hit on it.
func hitAllocs(t *testing.T, s *Server, path string) float64 {
	t.Helper()
	w := &nopResponseWriter{h: make(http.Header)}
	r := httptest.NewRequest(http.MethodGet, path, nil)
	s.ServeHTTP(w, r) // the miss that fills the cache
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		s.ServeHTTP(w, r)
	})
	if got := w.h.Get("X-Octopus-Cache"); got != "hit" {
		t.Fatalf("%s: X-Octopus-Cache = %q, want hit", path, got)
	}
	return allocs
}

// BenchmarkCachedHit times a warm cache hit through ServeHTTP for each
// of the hit paths, traced and untraced.
func BenchmarkCachedHit(b *testing.B) {
	_, sys := testServer(b)
	for _, bud := range hitBudgets {
		s := NewWith(sys, bud.opt)
		for _, p := range hitPaths(sys) {
			b.Run(p.name+"/"+bud.name, func(b *testing.B) {
				w := &nopResponseWriter{h: make(http.Header)}
				r := httptest.NewRequest(http.MethodGet, p.path, nil)
				s.ServeHTTP(w, r)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(w.h)
					s.ServeHTTP(w, r)
				}
			})
		}
	}
}

// TestCachedHitHeaders: a hit carries the headers of the miss that
// produced it — Content-Type, X-Octopus-Generation, an X-Octopus-Trace
// id — with X-Octopus-Cache hit, and the replayed header slices are
// shared read-only: a writer appending to them does not reach the
// stored entry or the next hit.
func TestCachedHitHeaders(t *testing.T) {
	_, sys := testServer(t)
	s := NewWith(sys, Options{})
	for _, p := range hitPaths(sys) {
		for _, path := range []string{p.path, p.path + "&explain=1"} {
			miss := httptest.NewRecorder()
			s.ServeHTTP(miss, httptest.NewRequest(http.MethodGet, path, nil))
			w := &nopResponseWriter{h: make(http.Header)}
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if miss.Header().Get(cacheHeader) != "miss" || w.h.Get(cacheHeader) != "hit" {
				t.Fatalf("%s: cache states %q then %q, want miss then hit", path,
					miss.Header().Get(cacheHeader), w.h.Get(cacheHeader))
			}
			for k, want := range miss.Header() {
				got := w.h[k]
				switch k {
				case cacheHeader:
					continue
				case traceHeader:
					if len(got) != 1 || got[0] == "" || got[0] == want[0] {
						t.Fatalf("%s: hit trace header %q (miss %q), want its own id", path, got, want)
					}
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: hit header %s = %q, miss had %q", path, k, got, want)
				}
			}
			if len(w.h) != len(miss.Header()) {
				t.Fatalf("%s: hit headers %v, miss headers %v", path, w.h, miss.Header())
			}
			w.h.Add("Content-Type", "text/plain")
			w.h["X-Octopus-Generation"] = append(w.h["X-Octopus-Generation"], "99")
			again := httptest.NewRecorder()
			s.ServeHTTP(again, httptest.NewRequest(http.MethodGet, path, nil))
			for _, k := range []string{"Content-Type", "X-Octopus-Generation"} {
				if got := again.Header()[k]; !slices.Equal(got, miss.Header()[k]) {
					t.Fatalf("%s: a writer's append reached the next hit's %s: %q", path, k, got)
				}
			}
		}
	}
}
