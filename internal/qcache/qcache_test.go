package qcache

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func entry(body string) *Entry {
	return &Entry{Status: http.StatusOK, Header: http.Header{}, Body: []byte(body)}
}

func TestCacheHitMissStale(t *testing.T) {
	c := New(4)
	if _, out := c.Get("a", 1); out != Miss {
		t.Fatalf("empty cache outcome = %v, want Miss", out)
	}
	c.Put("a", 1, entry("v1"))
	e, out := c.Get("a", 1)
	if out != Hit || string(e.Body) != "v1" {
		t.Fatalf("Get = %v/%q, want Hit/v1", out, e.Body)
	}
	// Generation bump: entry is stale and evicted.
	if _, out := c.Get("a", 2); out != Stale {
		t.Fatalf("stale outcome = %v, want Stale", out)
	}
	if _, out := c.Get("a", 2); out != Miss {
		t.Fatalf("post-stale outcome = %v, want Miss (entry evicted)", out)
	}
	// Re-Put at the new generation replaces cleanly.
	c.Put("a", 2, entry("v2"))
	if e, out := c.Get("a", 2); out != Hit || string(e.Body) != "v2" {
		t.Fatalf("Get after re-put = %v/%q", out, e.Body)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), 1, entry("v"))
	}
	// Touch k0 so k1 is the LRU victim.
	if _, out := c.Get("k0", 1); out != Hit {
		t.Fatal("k0 should hit")
	}
	c.Put("k3", 1, entry("v"))
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, out := c.Get("k1", 1); out != Miss {
		t.Fatalf("k1 outcome = %v, want Miss (evicted)", out)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, out := c.Get(k, 1); out != Hit {
			t.Fatalf("%s outcome = %v, want Hit", k, out)
		}
	}
}

// TestCachePutNeverRegressesGeneration: a straggler leader that pinned
// an old snapshot must not replace the entry the current generation
// already recomputed.
func TestCachePutNeverRegressesGeneration(t *testing.T) {
	c := New(4)
	c.Put("k", 2, entry("fresh"))
	c.Put("k", 1, entry("straggler"))
	e, out := c.Get("k", 2)
	if out != Hit || string(e.Body) != "fresh" {
		t.Fatalf("Get = %v/%q, want Hit/fresh", out, e.Body)
	}
	// Equal or newer generations still replace.
	c.Put("k", 2, entry("fresh2"))
	if e, _ := c.Get("k", 2); string(e.Body) != "fresh2" {
		t.Fatalf("same-generation Put did not replace: %q", e.Body)
	}
	c.Put("k", 3, entry("newer"))
	if e, out := c.Get("k", 3); out != Hit || string(e.Body) != "newer" {
		t.Fatalf("newer-generation Put = %v/%q", out, e.Body)
	}
}

// TestCacheStragglerGetKeepsNewerEntry: a reader pinned before a swap
// that looks up after the new generation's entry landed misses — it
// must neither evict the hot entry nor count a stale eviction.
func TestCacheStragglerGetKeepsNewerEntry(t *testing.T) {
	c := New(4)
	c.Put("k", 2, entry("current"))
	if _, out := c.Get("k", 1); out != Miss {
		t.Fatalf("straggler Get(k, 1) = %v, want Miss", out)
	}
	if e, out := c.Get("k", 2); out != Hit || string(e.Body) != "current" {
		t.Fatalf("Get(k, 2) after a straggler = %v, want Hit/current", out)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheGetBytesMatchesGet: the buffer-keyed lookup sees the same
// entries, evicts the same stale ones and allocates nothing on a hit.
func TestCacheGetBytesMatchesGet(t *testing.T) {
	c := New(4)
	c.Put("a", 1, entry("v1"))
	key := []byte("a")
	if e, out := c.GetBytes(key, 1); out != Hit || string(e.Body) != "v1" {
		t.Fatalf("GetBytes = %v", out)
	}
	if _, out := c.GetBytes([]byte("b"), 1); out != Miss {
		t.Fatalf("GetBytes(b) = %v, want Miss", out)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.GetBytes(key, 1) }); allocs != 0 {
		t.Errorf("GetBytes hit allocates %.1f objects, want 0", allocs)
	}
	if _, out := c.GetBytes(key, 2); out != Stale {
		t.Fatalf("GetBytes at a newer generation = %v, want Stale", out)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted: Len = %d", c.Len())
	}
}

func TestCachePutReplaces(t *testing.T) {
	c := New(2)
	c.Put("a", 1, entry("old"))
	c.Put("a", 1, entry("new"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if e, _ := c.Get("a", 1); string(e.Body) != "new" {
		t.Fatalf("Body = %q", e.Body)
	}
}

func TestFlightCoalesces(t *testing.T) {
	var f Flight
	var runs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 8
	results := make([]*Entry, n)
	shared := make([]bool, n)
	var wg sync.WaitGroup
	// Leader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], shared[0] = f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry {
			runs.Add(1)
			close(started)
			<-release
			return entry("leader")
		})
	}()
	<-started
	// Followers join while the leader is in flight.
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shared[i] = f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry {
				runs.Add(1)
				return entry("follower")
			})
		}(i)
	}
	// Give followers a moment to park on the call, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if string(results[i].Body) != "leader" {
			t.Fatalf("result[%d] = %q", i, results[i].Body)
		}
		if i > 0 && !shared[i] {
			t.Fatalf("follower %d not marked shared", i)
		}
	}
	if shared[0] {
		t.Fatal("leader marked shared")
	}
	// After completion a fresh Do runs fn again.
	e, sh := f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry { runs.Add(1); return entry("fresh") })
	if sh || string(e.Body) != "fresh" || runs.Load() != 2 {
		t.Fatalf("post-completion Do = %q shared=%v runs=%d", e.Body, sh, runs.Load())
	}
}

// TestFlightLeaderPanicDoesNotWedgeKey: a panicking leader must retire
// the key and release waiters (with a nil result), never leave them
// blocked forever.
func TestFlightLeaderPanicDoesNotWedgeKey(t *testing.T) {
	var f Flight
	inFlight := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan *Entry, 1)

	go func() {
		defer func() { _ = recover() }()
		f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry {
			close(inFlight)
			<-release
			panic("engine exploded")
		})
	}()
	<-inFlight
	go func() {
		e, _ := f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry { return entry("should not run") })
		waiterDone <- e
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park on the call
	close(release)
	if e := <-waiterDone; e != nil && string(e.Body) == "should not run" {
		t.Fatal("waiter ran its own fn while coalesced onto the leader")
	}
	// The key must be usable again.
	e, shared := f.Do(FlightKey{Gen: 1, Key: "k"}, func() *Entry { return entry("recovered") })
	if shared || string(e.Body) != "recovered" {
		t.Fatalf("post-panic Do = %q shared=%v", e.Body, shared)
	}
}

func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.Do(FlightKey{Gen: 1, Key: fmt.Sprintf("k%d", i)}, func() *Entry {
				runs.Add(1)
				return entry("v")
			})
		}(i)
	}
	wg.Wait()
	if runs.Load() != 4 {
		t.Fatalf("runs = %d, want 4", runs.Load())
	}
}

func TestGate(t *testing.T) {
	g := NewGate(2)
	if g.Capacity() != 2 {
		t.Fatalf("Capacity = %d", g.Capacity())
	}
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("first two acquisitions must succeed")
	}
	if g.TryAcquire() {
		t.Fatal("third acquisition must fail")
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight = %d", g.InFlight())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("acquisition after release must succeed")
	}
	g.Release()
	g.Release()
	if g.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", g.InFlight())
	}
}

func TestNilGateUnlimited(t *testing.T) {
	g := NewGate(0)
	if g != nil {
		t.Fatal("capacity 0 must return nil (unlimited)")
	}
	for i := 0; i < 100; i++ {
		if !g.TryAcquire() {
			t.Fatal("nil gate must always admit")
		}
	}
	g.Release() // must not panic
	if g.InFlight() != 0 || g.Capacity() != 0 {
		t.Fatal("nil gate reports zero usage")
	}
}

func TestMetricsCountersAndQuantiles(t *testing.T) {
	m := NewMetrics()
	// 90 fast (1ms) + 10 slow (100ms) observations: p50 must sit near
	// 1ms, p99 near 100ms (within the histogram's 2× bucket error).
	for i := 0; i < 90; i++ {
		m.Observe("im", StateHit, 200, time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		m.Observe("im", StateMiss, 200, 100*time.Millisecond)
	}
	m.StaleEvict("im")
	m.Observe("im", StateStale, 200, time.Millisecond)
	m.Observe("im", StateCoalesced, 429, time.Millisecond)
	m.Shed("im")
	m.Observe("im", StateShed, 429, time.Millisecond)
	m.Observe("suggest", StateBypass, 404, time.Millisecond)

	rep := m.Report()
	im := rep.Endpoints["im"]
	if im.Count != 103 {
		t.Fatalf("im count = %d", im.Count)
	}
	if im.Hits != 90 || im.Misses != 11 || im.Stale != 1 || im.Coalesced != 1 || im.Shed != 1 {
		t.Fatalf("im cache counters = %+v", im)
	}
	if im.Errors != 2 {
		t.Fatalf("im errors = %d", im.Errors)
	}
	if im.P50Ms < 0.4 || im.P50Ms > 3 {
		t.Fatalf("p50 = %.3fms, want ≈1ms", im.P50Ms)
	}
	if im.P99Ms < 50 || im.P99Ms > 200 {
		t.Fatalf("p99 = %.3fms, want ≈100ms", im.P99Ms)
	}
	if im.MaxMs < 99 || im.MaxMs > 201 {
		t.Fatalf("max = %.3fms", im.MaxMs)
	}
	if sg := rep.Endpoints["suggest"]; sg.Count != 1 || sg.Errors != 1 {
		t.Fatalf("suggest = %+v", sg)
	}
	if rep.Requests != 104 || rep.Shed != 1 {
		t.Fatalf("totals = %d req / %d shed", rep.Requests, rep.Shed)
	}
	if len(rep.EndpointNames) != 2 || rep.EndpointNames[0] != "im" {
		t.Fatalf("endpoint names = %v", rep.EndpointNames)
	}
}

func TestMetricsEmptyReport(t *testing.T) {
	rep := NewMetrics().Report()
	if rep.Requests != 0 || len(rep.Endpoints) != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
}

func TestRetryAfterSecondsDerived(t *testing.T) {
	m := NewMetrics()
	// No observations yet: the floor.
	if got := m.RetryAfterSeconds("im"); got != 1 {
		t.Fatalf("cold retry-after = %d, want 1", got)
	}
	// A fast endpoint stays at the 1s floor.
	for i := 0; i < 100; i++ {
		m.Observe("im", StateMiss, 200, 5*time.Millisecond)
	}
	if got := m.RetryAfterSeconds("im"); got != 1 {
		t.Fatalf("fast retry-after = %d, want 1", got)
	}
	// A slow endpoint pushes clients out ≈ its p99, rounded up.
	for i := 0; i < 100; i++ {
		m.Observe("slow", StateMiss, 200, 2500*time.Millisecond)
	}
	if got := m.RetryAfterSeconds("slow"); got != 3 {
		t.Fatalf("slow retry-after = %d, want 3 (⌈2.5s⌉)", got)
	}
	// Pathological latencies are capped so the hint stays actionable.
	m.Observe("stuck", StateMiss, 200, 10*time.Minute)
	if got := m.RetryAfterSeconds("stuck"); got != 60 {
		t.Fatalf("capped retry-after = %d, want 60", got)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				gen := uint64(1 + i%3)
				if e, out := c.Get(k, gen); out == Hit && len(e.Body) == 0 {
					t.Error("hit with empty body")
					return
				}
				c.Put(k, gen, entry("v"))
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds bound", c.Len())
	}
}
