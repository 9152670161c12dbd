package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/stream"
)

// TestSoakCacheBitIdenticalAcrossSwaps is the serving-layer soak: query
// workers hammer a live, cache-enabled server while an ingest goroutine
// streams events and forces snapshot swaps. Every sampled response is
// replayed afterwards against an uncached reference server pinned to
// the same snapshot generation and must match byte for byte — no
// stale-generation answers, no torn cache entries. Run it under -race:
// the workers, the ingest path and the fold/swap machinery all overlap.
func TestSoakCacheBitIdenticalAcrossSwaps(t *testing.T) {
	folds, workers, perWorkerCap := 6, 3, 300
	if testing.Short() {
		folds, perWorkerCap = 3, 120
	}
	// Memory-bounding the samples per (worker, generation) — rather than
	// per worker — keeps verification coverage on every generation even
	// when a slow fold (e.g. under -race) lets a worker issue thousands
	// of queries against one snapshot.
	perGenCap := perWorkerCap / (folds + 1)

	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 250, Topics: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Folds only on ForceSnapshot, so the ingest goroutine observes and
	// records every generation that can ever serve.
	ls, err := stream.NewLiveSystem(sys, stream.Config{RebuildEvents: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	srv := NewWith(ls, Options{CacheEntries: 256})

	// generations: every snapshot that ever served, by generation.
	var genMu sync.Mutex
	generations := map[uint64]*core.System{}
	record := func() {
		sn := ls.Snapshot()
		genMu.Lock()
		generations[sn.Version] = sn.Sys
		genMu.Unlock()
	}
	record()

	queries := soakQueries(sys)

	type sample struct {
		path string
		gen  uint64
		body []byte
	}
	samples := make([][]sample, workers)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)

	// queriesIssued paces the ingest goroutine: folds only fire after
	// the workers have made progress against the current snapshot, so
	// swaps always interleave with queries (on a fast machine all folds
	// could otherwise finish before a single query runs).
	var queriesIssued atomic.Int64

	// Ingest goroutine: stream items+actions and edges over HTTP, then
	// force a fold; record the new snapshot before the next round. The
	// deferred close releases the workers on every exit path — an early
	// error return must not leave them spinning forever.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		n := sys.Graph().NumNodes()
		prev := int64(0)
		for round := 0; round < folds; round++ {
			// Wait for a few queries against the current snapshot; bail if
			// a worker already failed (errCh non-empty) so we never spin on
			// workers that have exited.
			for queriesIssued.Load() < prev+int64(2*workers) && len(errCh) == 0 {
				time.Sleep(time.Millisecond)
			}
			if len(errCh) > 0 {
				return
			}
			item := 500_000 + round
			actions := fmt.Sprintf(
				`{"items":[{"id":%d,"keywords":["soak","mining"]}],"actions":[{"user":%d,"item":%d,"time":%d},{"user":%d,"item":%d,"time":%d}]}`,
				item, round%n, item, 10*round, (round+7)%n, item, 10*round+1)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/api/ingest/actions", strings.NewReader(actions))
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				errCh <- fmt.Errorf("ingest actions round %d: status %d (%s)", round, rec.Code, rec.Body.String())
				return
			}
			edges := fmt.Sprintf(`{"edges":[{"src":%d,"dst":%d,"dstName":"Soak %d"}]}`,
				round%n, n+round, round)
			rec = httptest.NewRecorder()
			req = httptest.NewRequest(http.MethodPost, "/api/ingest/edges", strings.NewReader(edges))
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusAccepted {
				errCh <- fmt.Errorf("ingest edges round %d: status %d (%s)", round, rec.Code, rec.Body.String())
				return
			}
			if err := ls.ForceSnapshot(); err != nil {
				errCh <- fmt.Errorf("fold round %d: %w", round, err)
				return
			}
			record()
			prev = queriesIssued.Load()
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sampled := map[uint64]int{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := queries[(i+w*3)%len(queries)]
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				queriesIssued.Add(1)
				if rec.Code != http.StatusOK {
					errCh <- fmt.Errorf("worker %d: GET %s = %d (%s)", w, path, rec.Code, rec.Body.String())
					return
				}
				gen, err := strconv.ParseUint(rec.Header().Get("X-Octopus-Generation"), 10, 64)
				if err != nil {
					errCh <- fmt.Errorf("worker %d: bad generation header: %v", w, err)
					return
				}
				if sampled[gen] < perGenCap {
					sampled[gen]++
					samples[w] = append(samples[w], sample{
						path: path, gen: gen,
						body: append([]byte(nil), rec.Body.Bytes()...),
					})
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Replay every sample against an uncached server pinned to the same
	// generation: byte-identical or bust.
	refs := map[uint64]*Server{}
	refFor := func(gen uint64) *Server {
		if ref, ok := refs[gen]; ok {
			return ref
		}
		genSys, ok := generations[gen]
		if !ok {
			t.Fatalf("response served from unrecorded generation %d", gen)
		}
		ref := NewWith(genSys, Options{CacheEntries: -1})
		refs[gen] = ref
		return ref
	}
	verified, byGen := 0, map[uint64]int{}
	for w := range samples {
		for _, sm := range samples[w] {
			ref := refFor(sm.gen)
			rec := httptest.NewRecorder()
			ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, sm.path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("reference GET %s @gen %d = %d", sm.path, sm.gen, rec.Code)
			}
			if !bytes.Equal(rec.Body.Bytes(), sm.body) {
				t.Fatalf("GET %s @gen %d: cached-path response differs from uncached reference\nserved: %s\nwant:   %s",
					sm.path, sm.gen, sm.body, rec.Body.Bytes())
			}
			verified++
			byGen[sm.gen]++
		}
	}
	if verified == 0 {
		t.Fatal("soak verified zero responses")
	}
	if len(byGen) < 2 {
		t.Fatalf("soak observed only %d generation(s); swaps did not interleave with queries", len(byGen))
	}

	// The interesting paths must actually have been exercised: cache
	// hits (repeat queries) and stale evictions (post-swap lookups).
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/metrics", nil))
	var hits, stale uint64
	var doc struct {
		Endpoints map[string]struct {
			Hits  uint64 `json:"cacheHits"`
			Stale uint64 `json:"cacheStale"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ep := range doc.Endpoints {
		hits += ep.Hits
		stale += ep.Stale
	}
	if hits == 0 {
		t.Error("soak recorded no cache hits")
	}
	if stale == 0 {
		t.Error("soak recorded no stale evictions despite snapshot swaps")
	}
	t.Logf("soak: verified %d responses across %d generations (%v); cache hits=%d stale=%d",
		verified, len(byGen), genCounts(byGen), hits, stale)
}

// soakQueries builds a deterministic query mix over every cached read
// endpoint, derived from the system's own vocabulary and names.
func soakQueries(sys *core.System) []string {
	kw := vocabKeyword(sys)
	user := url.QueryEscape(richUser(sys))
	hub := url.QueryEscape(hubName(sys))
	prefix := url.QueryEscape(sys.Graph().Name(0)[:1])
	var second string
	for u := 0; u < sys.Graph().NumNodes(); u++ {
		if kws := sys.UserKeywords(graph.NodeID(u)); len(kws) > 1 {
			second = kws[1]
			break
		}
	}
	if second == "" {
		second = kw
	}
	return []string{
		"/api/im?q=" + url.QueryEscape(kw) + "&k=3",
		"/api/im?q=" + url.QueryEscape(kw+" "+second) + "&k=5",
		"/api/im?q=" + url.QueryEscape(second) + "&k=2&theta=0.02",
		"/api/suggest?user=" + user + "&k=2",
		"/api/keywords?user=" + user + "&limit=5",
		"/api/paths?user=" + hub + "&theta=0.01&max=60",
		"/api/radar?keyword=" + url.QueryEscape(kw),
		"/api/complete?prefix=" + prefix + "&k=5",
		"/api/status",
	}
}

func genCounts(byGen map[uint64]int) string {
	var b strings.Builder
	for g := uint64(1); g < 64; g++ {
		if n, ok := byGen[g]; ok {
			fmt.Fprintf(&b, "g%d:%d ", g, n)
		}
	}
	return strings.TrimSpace(b.String())
}
