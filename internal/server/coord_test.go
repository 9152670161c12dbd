package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/shard"
	"octopus/internal/store"
)

// coordRoutes are the routes a coordinator proxies to its shards — the
// set the byte-identity guarantee covers. Everything else (metrics,
// health, debug, UI) is answered by the coordinator's own serving
// shell.
var coordRoutes = map[string]bool{
	"/api/status":      true,
	"/api/im":          true,
	"/api/suggest":     true,
	"/api/keywords":    true,
	"/api/radar":       true,
	"/api/paths":       true,
	"/api/complete":    true,
	"/api/im/targeted": true,
}

var (
	coordShardMu  sync.Mutex
	coordShardSys = map[string][]*core.System{}
)

// shardSystems splits the shared test corpus into two shard systems
// with the given strategy, exercising the real partition + snapshot
// exchange path: split, build, save, reload. Each strategy's fleet is
// built once.
func shardSystems(t *testing.T, strat shard.Strategy) []*core.System {
	t.Helper()
	_, full := testServer(t)
	coordShardMu.Lock()
	defer coordShardMu.Unlock()
	if systems, ok := coordShardSys[strat.Name()]; ok {
		return systems
	}
	paths, err := shard.WriteFleet(t.TempDir(), full, strat, 2)
	if err != nil {
		t.Fatal(err)
	}
	var systems []*core.System
	for _, p := range paths {
		sys, err := store.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	coordShardSys[strat.Name()] = systems
	return systems
}

// twoShardSystems is the hash-partitioned 2-shard fleet.
func twoShardSystems(t *testing.T) []*core.System {
	return shardSystems(t, shard.Hash{Seed: 7})
}

// startCoordinator serves each shard system over a real listener and
// returns a coordinator fanning out to them, plus the shard test
// servers (so tests can kill one).
func startCoordinator(t *testing.T, shards []*core.System, copt CoordinatorOptions) (*Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, len(shards))
	addrs := make([]string, len(shards))
	for i, sys := range shards {
		srv := NewWith(sys, Options{})
		t.Cleanup(srv.Close)
		backends[i] = httptest.NewServer(srv)
		addrs[i] = backends[i].URL
	}
	t.Cleanup(func() {
		for _, b := range backends {
			b.Close()
		}
	})
	coord, err := NewCoordinator(addrs, Options{}, copt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, backends
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestCoordinatorOneShardByteIdentical is the tentpole guarantee: a
// coordinator over a single shard answers the conformance query table
// byte-for-byte like the process behind it — same statuses, same
// bodies, including error payloads and ?explain=1 envelopes.
func TestCoordinatorOneShardByteIdentical(t *testing.T) {
	single, sys := testServer(t)
	coord, _ := startCoordinator(t, []*core.System{sys}, CoordinatorOptions{})
	for _, tc := range conformanceCases() {
		path := tc.path(sys)
		u, err := url.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		if !coordRoutes[u.Path] || tc.allow != "" {
			continue // not proxied, or a 405 answered before the engine
		}
		t.Run(tc.name, func(t *testing.T) {
			want := do(t, single, tc.method, path, tc.body)
			got := do(t, coord, tc.method, path, tc.body)
			if got.Code != want.Code {
				t.Fatalf("%s %s: coordinator %d, single-process %d (body: %s)",
					tc.method, path, got.Code, want.Code, got.Body.String())
			}
			if got.Code != tc.want {
				t.Fatalf("%s %s: coordinator %d, want %d (body: %s)",
					tc.method, path, got.Code, tc.want, got.Body.String())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s %s: bodies differ\ncoordinator:    %s\nsingle-process: %s",
					tc.method, path, got.Body.String(), want.Body.String())
			}
			if h := got.Header().Get(shardsMissingHeader); h != "" {
				t.Fatalf("healthy 1-shard fleet reported missing shards %q", h)
			}
		})
	}
}

// TestCoordinatorTwoShardMerge checks the merge semantics over a real
// 2-shard split: exact recombination where the merge is exact (status
// sums, complete max-weights, radar replication), well-formed additive
// ranking for im.
func TestCoordinatorTwoShardMerge(t *testing.T) {
	single, sys := testServer(t)
	coord, _ := startCoordinator(t, twoShardSystems(t), CoordinatorOptions{})

	t.Run("status sums to the full corpus", func(t *testing.T) {
		rec := do(t, coord, "GET", "/api/status", "")
		if rec.Code != 200 {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var got core.Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want := sys.Stats()
		if got.Nodes != want.Nodes || got.Edges != want.Edges ||
			got.Actions != want.Actions || got.Episodes < want.Episodes ||
			got.Topics != want.Topics || got.Vocabulary != want.Vocabulary {
			t.Fatalf("merged stats %+v do not recombine full-corpus %+v", got, want)
		}
	})

	t.Run("complete merges to the exact full answer", func(t *testing.T) {
		prefix := url.QueryEscape(sys.Graph().Name(0)[:1])
		want := do(t, single, "GET", "/api/complete?prefix="+prefix+"&k=8", "")
		got := do(t, coord, "GET", "/api/complete?prefix="+prefix+"&k=8", "")
		if got.Code != 200 {
			t.Fatalf("complete = %d: %s", got.Code, got.Body.String())
		}
		// Weights are out-degrees and edges are owned by their source, so
		// the max-weight merge recovers every true weight and the ranking.
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("merged complete differs from single-process:\n%s\n%s",
				got.Body.String(), want.Body.String())
		}
		// A prefix no name matches is an empty list on both, never null.
		want = do(t, single, "GET", "/api/complete?prefix=%7E%7Enomatch&k=8", "")
		got = do(t, coord, "GET", "/api/complete?prefix=%7E%7Enomatch&k=8", "")
		if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("no-match complete differs: coordinator %d %q, single-process %q",
				got.Code, got.Body.String(), want.Body.String())
		}
	})

	t.Run("radar is fleet-invariant", func(t *testing.T) {
		kw := url.QueryEscape(vocabKeyword(sys))
		want := do(t, single, "GET", "/api/radar?keyword="+kw, "")
		got := do(t, coord, "GET", "/api/radar?keyword="+kw, "")
		if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("radar (shared topic model) differs: %d %s", got.Code, got.Body.String())
		}
	})

	t.Run("im merges additively with ranked seeds", func(t *testing.T) {
		kw := url.QueryEscape(vocabKeyword(sys))
		rec := do(t, coord, "GET", "/api/im?q="+kw+"&k=5", "")
		if rec.Code != 200 {
			t.Fatalf("im = %d: %s", rec.Code, rec.Body.String())
		}
		var resp imResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Seeds) == 0 || len(resp.Seeds) > 5 {
			t.Fatalf("merged im returned %d seeds", len(resp.Seeds))
		}
		for i, s := range resp.Seeds {
			if s.Spread <= 0 {
				t.Fatalf("seed %d has non-positive merged spread %v", i, s.Spread)
			}
			// Spreads are cumulative, as in a single-process answer.
			if i > 0 && s.Spread < resp.Seeds[i-1].Spread {
				t.Fatalf("merged spreads decrease at %d: %+v after %+v", i, s, resp.Seeds[i-1])
			}
		}
		if len(resp.Gamma) == 0 || len(resp.Topics) == 0 {
			t.Fatal("merged im lost the shared gamma/topics")
		}
	})

	t.Run("targeted merges additively", func(t *testing.T) {
		const k, rrSamples = 4, 300
		body := fmt.Sprintf(`{"q":"data","audience":[0,1,2,3,4,5,6,7],"k":%d,"rrSamples":%d}`, k, rrSamples)
		rec := do(t, coord, "POST", "/api/im/targeted", body)
		if rec.Code != 200 {
			t.Fatalf("targeted = %d: %s", rec.Code, rec.Body.String())
		}
		var resp struct {
			targetedResponse
			ShardsMissing []int `json:"shards_missing"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Seeds) == 0 || len(resp.Seeds) > k {
			t.Fatalf("merged targeted returned %d seeds", len(resp.Seeds))
		}
		for i, s := range resp.Seeds {
			if s.Spread <= 0 {
				t.Fatalf("seed %d has non-positive merged spread %v", i, s.Spread)
			}
		}
		if len(resp.ShardsMissing) > 0 {
			t.Fatalf("healthy fleet reported shards_missing %v", resp.ShardsMissing)
		}
		// Each shard samples rrSamples RR sets; the ledgers add up.
		rec = do(t, coord, "POST", "/api/im/targeted?explain=1", body)
		if rec.Code != 200 {
			t.Fatalf("targeted explain = %d: %s", rec.Code, rec.Body.String())
		}
		var doc explainDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Cost == nil || doc.Cost.RIS.Samples != 2*rrSamples {
			t.Fatalf("merged targeted cost = %+v, want ris.samples %d", doc.Cost, 2*rrSamples)
		}
	})

	t.Run("suggest answers from the owning shard", func(t *testing.T) {
		user := url.QueryEscape(richUser(sys))
		rec := do(t, coord, "GET", "/api/suggest?user="+user+"&k=2", "")
		if rec.Code != 200 {
			t.Fatalf("suggest = %d: %s", rec.Code, rec.Body.String())
		}
		var resp suggestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Keywords) == 0 {
			t.Fatalf("owning shard produced no keywords: %s", rec.Body.String())
		}
	})
}

// TestCoordinatorShardDownDegrades kills one of two shards and checks
// the partial-results contract: queries still answer (200) with the
// missing shard marked in the header, partial answers are never
// cached, health degrades with a machine-readable reason, and an
// all-down fleet answers 503.
func TestCoordinatorShardDownDegrades(t *testing.T) {
	_, sys := testServer(t)
	coord, backends := startCoordinator(t, twoShardSystems(t),
		CoordinatorOptions{ShardTimeout: 2 * time.Second, ProbeInterval: time.Hour})

	kw := url.QueryEscape(vocabKeyword(sys))
	if rec := do(t, coord, "GET", "/api/im?q="+kw+"&k=3", ""); rec.Code != 200 ||
		rec.Header().Get(shardsMissingHeader) != "" {
		t.Fatalf("healthy fleet: %d, missing=%q", rec.Code, rec.Header().Get(shardsMissingHeader))
	}

	backends[1].CloseClientConnections()
	backends[1].Close()

	// First uncached query after the kill (k differs from the cached
	// one): the fan-out call fails, shard 1 is marked down
	// synchronously, and the answer is partial. The identical pre-kill
	// query may legitimately replay from cache until the next probe
	// bumps the fleet generation.
	rec := do(t, coord, "GET", "/api/im?q="+kw+"&k=4", "")
	if rec.Code != 200 {
		t.Fatalf("partial im = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(shardsMissingHeader); got != "1" {
		t.Fatalf("%s = %q, want \"1\"", shardsMissingHeader, got)
	}
	var partial struct {
		imResponse
		ShardsMissing []int `json:"shards_missing"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.ShardsMissing) != 1 || partial.ShardsMissing[0] != 1 {
		t.Fatalf("shards_missing = %v, want [1]", partial.ShardsMissing)
	}
	if len(partial.Seeds) == 0 {
		t.Fatal("partial answer lost the surviving shard's seeds")
	}

	// Partial answers must not be cached: replaying the identical query
	// must not be a cache hit.
	rec2 := do(t, coord, "GET", "/api/im?q="+kw+"&k=4", "")
	if st := rec2.Header().Get("X-Octopus-Cache"); st == "hit" {
		t.Fatal("partial answer was served from cache")
	}

	// Health reflects the missing shard.
	hrec := do(t, coord, "GET", "/api/health", "")
	var h healthResponse
	if err := json.Unmarshal(hrec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.State == "ready" {
		t.Fatalf("health state = %q with a dead shard", h.State)
	}
	found := false
	for _, reason := range h.Reasons {
		if strings.HasPrefix(reason, "shards_missing: shard 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("health reasons %v lack a shards_missing entry", h.Reasons)
	}
	if len(h.Shards) != 2 || h.Shards[1].Up || !h.Shards[0].Up {
		t.Fatalf("health shard roster wrong: %+v", h.Shards)
	}

	// Single-owner endpoints: users owned by the dead shard answer like
	// users with no data; users on the live shard still answer.
	if rec := do(t, coord, "GET", "/api/status", ""); rec.Code != 200 {
		t.Fatalf("partial status = %d", rec.Code)
	}

	// All shards down: machine-readable 503.
	backends[0].CloseClientConnections()
	backends[0].Close()
	rec = do(t, coord, "GET", "/api/im?q="+kw+"&k=3", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down fleet answered %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(shardsMissingHeader); got != "0,1" {
		t.Fatalf("%s = %q, want \"0,1\"", shardsMissingHeader, got)
	}
}

// TestCoordinatorShardErrorIsMissing: a shard answering 503 beside
// another shard's 200 contributed nothing, so the answer is partial —
// marked like a dead shard's, and never cached.
func TestCoordinatorShardErrorIsMissing(t *testing.T) {
	_, sys := testServer(t)
	var addrs []string
	for i, shardSys := range twoShardSystems(t) {
		srv := NewWith(shardSys, Options{})
		t.Cleanup(srv.Close)
		var h http.Handler = srv
		if i == 1 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/im" {
					writeErr(w, http.StatusServiceUnavailable, errors.New("query deadline exceeded"))
					return
				}
				srv.ServeHTTP(w, r)
			})
		}
		backend := httptest.NewServer(h)
		t.Cleanup(backend.Close)
		addrs = append(addrs, backend.URL)
	}
	coord, err := NewCoordinator(addrs, Options{}, CoordinatorOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	path := "/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=4"
	for range 2 {
		rec := do(t, coord, "GET", path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("im = %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(shardsMissingHeader); got != "1" {
			t.Fatalf("%s = %q, want \"1\"", shardsMissingHeader, got)
		}
		var partial struct {
			ShardsMissing []int `json:"shards_missing"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &partial); err != nil {
			t.Fatal(err)
		}
		if len(partial.ShardsMissing) != 1 || partial.ShardsMissing[0] != 1 {
			t.Fatalf("shards_missing = %v, want [1]", partial.ShardsMissing)
		}
		// Never cached, so the repeat computes again.
		if got := rec.Header().Get("X-Octopus-Cache"); got != "miss" {
			t.Fatalf("X-Octopus-Cache = %q, want miss", got)
		}
	}
}

// TestCoordinatorFleetGeneration: a shard going down changes the fleet
// generation, implicitly invalidating every cached merged answer —
// the same mechanism a snapshot swap uses on a single process.
// TestCoordinatorTargetedShed: a coordinator's targeted fan-outs take
// an admission slot like its read endpoints, so -max-inflight bounds
// them too.
func TestCoordinatorTargetedShed(t *testing.T) {
	_, sys := testServer(t)
	srv := NewWith(sys, Options{})
	t.Cleanup(srv.Close)
	backend := httptest.NewServer(srv)
	t.Cleanup(backend.Close)
	coord, err := NewCoordinator([]string{backend.URL}, Options{MaxInflight: 1}, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if !coord.gate.TryAcquire() {
		t.Fatal("could not fill the gate")
	}
	defer coord.gate.Release()
	rec := do(t, coord, "POST", "/api/im/targeted", `{"q":"data","audience":[0,1,2],"k":2,"rrSamples":200}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("targeted with a full gate = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("coordinator targeted shed lacks Retry-After")
	}
	_, m := get(t, coord, "/api/metrics")
	eps := m["endpoints"].(map[string]any)
	if shed := eps["targeted"].(map[string]any)["shed"].(float64); shed != 1 {
		t.Fatalf("targeted shed = %v, want 1", shed)
	}
}

func TestCoordinatorFleetGeneration(t *testing.T) {
	coord, backends := startCoordinator(t, twoShardSystems(t),
		CoordinatorOptions{ShardTimeout: 2 * time.Second, ProbeInterval: time.Hour})
	g1 := coord.generation()
	backends[1].CloseClientConnections()
	backends[1].Close()
	// A fan-out discovers the dead shard and bumps the fleet generation.
	do(t, coord, "GET", "/api/status", "")
	if g2 := coord.generation(); g2 == g1 {
		t.Fatalf("fleet generation unchanged (%d) after a shard died", g2)
	}
}

// TestCoordinatorRejectsEmptyFleet pins the constructor contract.
func TestCoordinatorRejectsEmptyFleet(t *testing.T) {
	if _, err := NewCoordinator(nil, Options{}, CoordinatorOptions{}); err == nil {
		t.Fatal("NewCoordinator accepted an empty fleet")
	}
}

// TestCoordinatorRejectsUnservableRoster: a scheme-less address would
// fail every call before the transport, so its shard would read up
// forever while every read answered 503; a shard listed twice (URL and
// URL/ normalize alike) would count twice in every summed merge. Both
// are refused; the URL lists the benchmark and CI launch stay legal.
func TestCoordinatorRejectsUnservableRoster(t *testing.T) {
	shard := httptest.NewServer(http.NotFoundHandler())
	defer shard.Close()
	for _, tc := range []struct {
		addrs []string
		want  string
	}{
		{[]string{"127.0.0.1:1"}, "not an absolute http(s) URL"},
		{[]string{"ftp://127.0.0.1:1"}, "not an absolute http(s) URL"},
		{[]string{"http://"}, "not an absolute http(s) URL"},
		{[]string{shard.URL, shard.URL + "/"}, "listed twice"},
	} {
		if _, err := NewCoordinator(tc.addrs, Options{}, CoordinatorOptions{ProbeInterval: time.Hour}); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewCoordinator(%q) = %v, want an error containing %q", tc.addrs, err, tc.want)
		}
	}
	coord, err := NewCoordinator([]string{shard.URL, "http://127.0.0.1:1/"}, Options{}, CoordinatorOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("legal roster refused: %v", err)
	}
	coord.Close()
}

// TestMergeSeeds pins the seed merges on synthetic shard lists. Keyword
// IM sums each shard's marginal gains and renders cumulative spreads;
// targeted IM sums the per-seed spreads as they stand.
func TestMergeSeeds(t *testing.T) {
	seed := func(id int32, spread float64) imSeed { return imSeed{ID: id, Spread: spread} }
	a := []imSeed{seed(1, 10), seed(2, 15), seed(3, 18)}
	b := []imSeed{seed(11, 8), seed(12, 12), seed(13, 14)}
	for _, tc := range []struct {
		name string
		got  []imSeed
		want []imSeed
	}{
		{"im ranks by marginal gain", mergeIMSeeds([][]imSeed{a, b}),
			[]imSeed{seed(1, 10), seed(11, 18), seed(2, 23)}},
		{"im sums a shared seed's gains", mergeIMSeeds([][]imSeed{
			{seed(1, 4), seed(2, 10)},
			{seed(2, 5), seed(3, 7)},
		}), []imSeed{seed(2, 11), seed(1, 15)}},
		{"im over one shard replays it", mergeIMSeeds([][]imSeed{a}), a},
		{"targeted sums spreads", mergeSeeds([][]imSeed{a, {seed(3, 4), seed(11, 9)}},
			func(seeds []imSeed, i int) float64 { return seeds[i].Spread }),
			[]imSeed{seed(3, 22), seed(2, 15), seed(1, 10)}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: merged %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}
