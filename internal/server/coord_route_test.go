package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/obs"
	"octopus/internal/shard"
)

// countingFleet is a coordinator over shard servers whose listeners
// count the requests they receive, by path and by how cost was asked
// for.
type countingFleet struct {
	coord    *Server
	shards   []*Server
	backends []*httptest.Server

	mu    sync.Mutex
	calls []map[string]int // per shard: path, "explain" and "want-cost" counts
}

func startCountingFleet(t *testing.T, systems []*core.System, opt Options) *countingFleet {
	t.Helper()
	cf := &countingFleet{}
	var addrs []string
	for i, sys := range systems {
		srv := NewWith(sys, Options{})
		t.Cleanup(srv.Close)
		cf.shards = append(cf.shards, srv)
		cf.calls = append(cf.calls, map[string]int{})
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cf.mu.Lock()
			cf.calls[i][r.URL.Path]++
			if r.URL.Query().Has("explain") {
				cf.calls[i]["explain"]++
			}
			if r.Header.Get(wantCostHeader) != "" {
				cf.calls[i]["want-cost"]++
			}
			cf.mu.Unlock()
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(backend.Close)
		cf.backends = append(cf.backends, backend)
		addrs = append(addrs, backend.URL)
	}
	coord, err := NewCoordinator(addrs, opt, CoordinatorOptions{ShardTimeout: 2 * time.Second, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cf.coord = coord
	return cf
}

// count returns how many requests for key each shard has received.
func (cf *countingFleet) count(key string) []int {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	out := make([]int, len(cf.calls))
	for i, c := range cf.calls {
		out[i] = c[key]
	}
	return out
}

// delta is the per-shard increase of count(key) across fn.
func (cf *countingFleet) delta(key string, fn func()) []int {
	before := cf.count(key)
	fn()
	after := cf.count(key)
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestCoordinatorRoutesUserReads: for every node, by name and by
// decimal id, the coordinator's suggest, keywords and forward paths
// answers equal the owning shard's, and a key some shard holds reaches
// that shard alone. Keys no shard holds, and reverse paths, still fan
// out to every shard.
func TestCoordinatorRoutesUserReads(t *testing.T) {
	_, full := testServer(t)
	for _, strat := range []shard.Strategy{shard.Hash{Seed: 7}, shard.Community{Seed: 7}} {
		t.Run(strat.Name(), func(t *testing.T) {
			systems := shardSystems(t, strat)
			part, err := strat.Partition(full.Graph(), len(systems))
			if err != nil {
				t.Fatal(err)
			}
			held := map[string]int{}
			for i, sys := range systems {
				for _, k := range sys.HeldUserKeys() {
					held[k] = i
				}
			}
			cf := startCountingFleet(t, systems, Options{CacheEntries: -1})
			g := full.Graph()
			routed := 0
			for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
				for _, key := range []string{g.Name(u), strconv.Itoa(int(u))} {
					v, err := full.ResolveUser(key)
					if err != nil {
						t.Fatal(err)
					}
					owner := int(part[v])
					wantCalls := len(systems)
					if i, ok := held[key]; ok {
						if i != owner {
							t.Fatalf("key %q held by shard %d, owned by %d", key, i, owner)
						}
						wantCalls = 1
						routed++
					}
					for _, ep := range []string{"suggest", "keywords", "paths"} {
						path := "/api/" + ep + "?user=" + url.QueryEscape(key)
						var got *httptest.ResponseRecorder
						calls := cf.delta("/api/"+ep, func() { got = do(t, cf.coord, "GET", path, "") })
						want := do(t, cf.shards[owner], "GET", path, "")
						if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
							t.Fatalf("%s: coordinator %d %s\nowner shard %d: %d %s",
								path, got.Code, got.Body.String(), owner, want.Code, want.Body.String())
						}
						if sum(calls) != wantCalls || (wantCalls == 1 && calls[owner] != 1) {
							t.Fatalf("%s reached shards %v, want %d call(s)", path, calls, wantCalls)
						}
					}
				}
			}
			if routed == 0 {
				t.Fatal("no key was routable")
			}

			user := url.QueryEscape(richUser(full))
			for _, path := range []string{
				"/api/paths?reverse=1&user=" + user,
				"/api/suggest?user=No+Such+Person+Ever",
			} {
				u, _ := url.Parse(path)
				if calls := cf.delta(u.Path, func() { do(t, cf.coord, "GET", path, "") }); sum(calls) != len(systems) {
					t.Errorf("%s reached shards %v, want every shard", path, calls)
				}
			}
		})
	}
}

// TestCoordinatorRoutedOwnerDown: a user read whose owner is down —
// discovered by the routed call, or already down at pin time — keeps
// the partial-answer contract: 200, with the owner listed missing.
func TestCoordinatorRoutedOwnerDown(t *testing.T) {
	systems := twoShardSystems(t)
	cf := startCountingFleet(t, systems, Options{})
	keys := systems[1].HeldUserKeys()
	if len(keys) == 0 {
		t.Fatal("shard 1 holds no users")
	}
	user := url.QueryEscape(keys[0])
	cf.backends[1].CloseClientConnections()
	cf.backends[1].Close()
	for _, k := range []string{"2", "3"} { // the owner fails mid-call, then is down at pin time
		rec := do(t, cf.coord, "GET", "/api/suggest?k="+k+"&user="+user, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("suggest k=%s with its owner down = %d: %s", k, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(shardsMissingHeader); got != "1" {
			t.Fatalf("suggest k=%s: %s = %q, want \"1\"", k, shardsMissingHeader, got)
		}
	}
}

// TestCoordinatorRadarFromOneShard: a radar depends only on the shared
// topic model, so the lowest-index live shard answers it alone.
func TestCoordinatorRadarFromOneShard(t *testing.T) {
	single, sys := testServer(t)
	cf := startCountingFleet(t, twoShardSystems(t), Options{CacheEntries: -1})
	path := "/api/radar?keyword=" + url.QueryEscape(vocabKeyword(sys))
	want := do(t, single, "GET", path, "")
	for i, wantCalls := range [][]int{{1, 0}, {0, 1}} {
		if i == 1 { // with shard 0 down at pin time, shard 1 answers
			cf.backends[0].CloseClientConnections()
			cf.backends[0].Close()
			cf.coord.coord.markDown(0)
		}
		var got *httptest.ResponseRecorder
		calls := cf.delta("/api/radar", func() { got = do(t, cf.coord, "GET", path, "") })
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("radar differs from single-process: %d %s", got.Code, got.Body.String())
		}
		if calls[0] != wantCalls[0] || calls[1] != wantCalls[1] {
			t.Fatalf("radar reached shards %v, want %v", calls, wantCalls)
		}
	}
}

// TestCoordinatorLedgerOutOfBand: a traced, non-explain coordinator
// request asks its shards for plain bodies plus the X-Octopus-Cost
// header, and still records their engine work in the cost histograms.
func TestCoordinatorLedgerOutOfBand(t *testing.T) {
	_, sys := testServer(t)
	systems := twoShardSystems(t)
	cf := startCountingFleet(t, systems, Options{})
	user := url.QueryEscape(systems[0].HeldUserKeys()[0])
	explained := cf.delta("explain", func() {
		for _, path := range []string{
			"/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=3",
			"/api/paths?user=" + user,
		} {
			var rec *httptest.ResponseRecorder
			asked := cf.delta("want-cost", func() { rec = do(t, cf.coord, "GET", path, "") })
			if rec.Code != http.StatusOK || sum(asked) == 0 {
				t.Fatalf("%s = %d, ledger asked of shards %v", path, rec.Code, asked)
			}
		}
	})
	if sum(explained) != 0 {
		t.Fatalf("shards received %v explain requests", explained)
	}
	fam := famByName(scrape(t, cf.coord), "octopus_query_nodes_touched")
	if fam == nil {
		t.Fatal("octopus_query_nodes_touched missing from /metrics")
	}
	for _, ep := range []string{"im", "paths"} {
		found := false
		for _, sample := range fam.Samples {
			if sample.Labels["endpoint"] == ep && sample.Name == "octopus_query_nodes_touched_sum" && sample.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("coordinator recorded no nodes touched for %s", ep)
		}
	}
}

// TestLedgerHeaderNotCached: a request asking for the ledger gets the
// plain body plus its own work in X-Octopus-Cost — "none" on a cache
// hit — and the header never lands in the cached entry.
func TestLedgerHeaderNotCached(t *testing.T) {
	s, sys := freshServer(t, Options{})
	path := "/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=3"
	ask := func(want bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if want {
			req.Header.Set(wantCostHeader, "1")
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
		return rec
	}
	first := ask(true)
	c, err := obs.ParseCompact(first.Header().Get(costHeader))
	if err != nil || c.IsZero() {
		t.Fatalf("miss ledger %q: %v", first.Header().Get(costHeader), err)
	}
	plain := ask(false)
	if plain.Header().Get("X-Octopus-Cache") != "hit" || plain.Header().Get(costHeader) != "" {
		t.Fatalf("plain replay: cache %q, cost header %q", plain.Header().Get("X-Octopus-Cache"), plain.Header().Get(costHeader))
	}
	if !bytes.Equal(first.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatal("a ledger request's body differs from the plain body")
	}
	if again := ask(true); again.Header().Get(costHeader) != "none" {
		t.Fatalf("cache-hit ledger = %q, want none", again.Header().Get(costHeader))
	}
}

// TestCoordinatorExplainUnchanged: a client's explain=1 still travels
// to the shards. A routed read's envelope is the owner's byte for
// byte; a fanned-out read wraps the plain merged body with the sum of
// the shards' ledgers.
func TestCoordinatorExplainUnchanged(t *testing.T) {
	_, sys := testServer(t)
	systems := twoShardSystems(t)
	cf := startCountingFleet(t, systems, Options{})

	path := "/api/paths?explain=1&user=" + url.QueryEscape(systems[1].HeldUserKeys()[0])
	got, want := do(t, cf.coord, "GET", path, ""), do(t, cf.shards[1], "GET", path, "")
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("routed explain differs from the owner's:\n%s\n%s", got.Body.String(), want.Body.String())
	}

	path = "/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=4"
	plain := do(t, cf.coord, "GET", path, "")
	got = do(t, cf.coord, "GET", path+"&explain=1", "")
	var doc explainDoc
	if err := json.Unmarshal(got.Body.Bytes(), &doc); err != nil || doc.Cost == nil {
		t.Fatalf("fan-out explain: %v %s", err, got.Body.String())
	}
	if !bytes.Equal(append(doc.Result, '\n'), plain.Body.Bytes()) {
		t.Fatalf("explain result %s, plain body %s", doc.Result, plain.Body.String())
	}
	var sumCost obs.Cost
	for _, srv := range cf.shards {
		var part explainDoc
		if err := json.Unmarshal(do(t, srv, "GET", path+"&explain=1", "").Body.Bytes(), &part); err != nil {
			t.Fatal(err)
		}
		sumCost.Merge(part.Cost)
	}
	if *doc.Cost != sumCost {
		t.Fatalf("merged ledger %+v, shards sum to %+v", doc.Cost, sumCost)
	}
}

// TestCoordinatorReusesShardConnections: the default client keeps an
// idle connection per admitted request, so a second burst as wide as
// the admission gate re-dials nothing.
func TestCoordinatorReusesShardConnections(t *testing.T) {
	_, sys := testServer(t)
	const width = 8
	srv := NewWith(sys, Options{CacheEntries: -1})
	t.Cleanup(srv.Close)
	arrived := make(chan struct{}, width) // one send per request of a wave
	var release atomic.Pointer[chan struct{}]
	stop := make(chan struct{})
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/im" {
			rel := *release.Load()
			arrived <- struct{}{}
			select {
			case <-rel:
			case <-stop:
			}
		}
		srv.ServeHTTP(w, r)
	}))
	var dials atomic.Int32
	backend.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	t.Cleanup(func() { close(stop) }) // before Close, which waits for held requests
	coord, err := NewCoordinator([]string{backend.URL}, Options{MaxInflight: width, CacheEntries: -1},
		CoordinatorOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	kw := url.QueryEscape(vocabKeyword(sys))
	for wave := range 2 {
		rel := make(chan struct{})
		release.Store(&rel)
		var wg sync.WaitGroup
		codes := make([]int, width)
		for i := range width {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path := "/api/im?q=" + kw + "&k=" + strconv.Itoa(1+i+wave*width)
				rec := httptest.NewRecorder()
				coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				codes[i] = rec.Code
			}()
		}
		for range width {
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Fatal("the burst never reached the shard in full")
			}
		}
		close(rel)
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("wave %d request %d = %d", wave, i, code)
			}
		}
	}
	if n := dials.Load(); n > width {
		t.Fatalf("two bursts of %d opened %d shard connections, want ≤ %d", width, n, width)
	}
}

// TestCoordinatorForwardsTraceID: one traced coordinator /api/im over
// two shards leaves the coordinator's trace id in each shard's trace
// ring, and a server adopts only a well-formed incoming id.
func TestCoordinatorForwardsTraceID(t *testing.T) {
	cf := startCountingFleet(t, twoShardSystems(t), Options{})
	_, full := testServer(t)
	path := "/api/im?q=" + url.QueryEscape(vocabKeyword(full)) + "&k=3"
	rec := do(t, cf.coord, http.MethodGet, path, "")
	id := rec.Header().Get("X-Octopus-Trace")
	if rec.Code != http.StatusOK || id == "" {
		t.Fatalf("coordinator im = %d, trace %q", rec.Code, id)
	}
	for i, sh := range cf.shards {
		var dump tracesResponse
		if err := json.Unmarshal(do(t, sh, http.MethodGet, "/api/debug/traces?n=50", "").Body.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, tr := range dump.Traces {
			found = found || (tr.ID == id && tr.Endpoint == "im")
		}
		if !found {
			t.Errorf("shard %d has no im trace with the coordinator's id %s", i, id)
		}
	}
	for in, adopt := range map[string]bool{"00c0ffee": true, "C0FFEE": false, "0123456789abcdef0": false, "x-1": false} {
		req := httptest.NewRequest(http.MethodGet, "/api/status", nil)
		req.Header.Set("X-Octopus-Trace", in)
		rec := httptest.NewRecorder()
		cf.shards[0].ServeHTTP(rec, req)
		if got := rec.Header().Get("X-Octopus-Trace"); (got == in) != adopt || got == "" {
			t.Errorf("incoming trace id %q: response id %q, adopt = %v", in, got, adopt)
		}
	}
}
