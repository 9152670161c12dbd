// Package qcache is the query-serving layer of the OCTOPUS server: the
// machinery that lets an *online* influence-analysis system answer the
// same popular questions many times without redoing the work, and stay
// up when the offered load exceeds what the engines can absorb.
//
// It provides four pieces, composed by internal/server:
//
//   - Cache: a bounded LRU of rendered query responses, each entry
//     tagged with the serving snapshot's generation. A lookup hits only
//     when the entry's generation matches the current one, so a snapshot
//     swap invalidates every cached answer implicitly — no flush, no
//     epoch walk, stale entries simply die on their next touch or fall
//     off the LRU tail.
//
//   - Flight: request coalescing (singleflight). Concurrent identical
//     misses share one engine run; followers block until the leader's
//     response is rendered and then reuse its bytes.
//
//   - Gate: a semaphore admission controller. Query work acquires a
//     slot before running an engine; when all slots are taken the
//     request is shed immediately (the server answers 429 + Retry-After)
//     instead of queueing unboundedly.
//
//   - Metrics: per-endpoint request counters, cache hit/miss/stale and
//     shed counts, and latency histograms with quantile estimation —
//     the payload behind GET /api/metrics.
//
// The package is deliberately value-agnostic: an Entry is a rendered
// HTTP response (status + headers + body bytes), so a cache hit is
// byte-identical to the miss that produced it.
package qcache

import (
	"container/list"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"octopus/internal/obs"
)

// Entry is one rendered response: what the handler wrote, replayable
// verbatim. Body and Header must be treated as immutable once stored.
type Entry struct {
	Status int
	Header http.Header
	Body   []byte
}

// Outcome classifies a cache lookup.
type Outcome int

const (
	// Miss: no entry under the key.
	Miss Outcome = iota
	// Hit: an entry with the current generation.
	Hit
	// Stale: an entry existed but was built against an older generation;
	// it has been evicted and the caller must recompute. (An entry from a
	// newer generation than the caller's is a Miss and stays cached.)
	Stale
)

// Cache is a bounded, generation-aware LRU of rendered responses. Safe
// for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
}

type cacheItem struct {
	key   string
	gen   uint64
	entry *Entry
}

// New creates a cache bounded to maxEntries (minimum 1).
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get looks the key up against the given generation. An entry from an
// older generation is evicted and reported Stale — the snapshot the
// answer was computed from is no longer the one being served. An entry
// from a newer generation is left alone and reported Miss: the caller
// is a straggler pinned before a swap, and the entry is the current
// generation's hot answer.
func (c *Cache) Get(key string, gen uint64) (*Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.check(c.entries[key], gen)
}

// GetBytes is Get for a key held in a reused buffer: the lookup
// converts it in place, so a hit allocates nothing.
func (c *Cache) GetBytes(key []byte, gen uint64) (*Entry, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.check(c.entries[string(key)], gen)
}

// check classifies a looked-up element against gen. Callers hold c.mu.
func (c *Cache) check(el *list.Element, gen uint64) (*Entry, Outcome) {
	if el == nil {
		return nil, Miss
	}
	it := el.Value.(*cacheItem)
	switch {
	case it.gen > gen:
		return nil, Miss
	case it.gen < gen:
		c.ll.Remove(el)
		delete(c.entries, it.key)
		return nil, Stale
	}
	c.ll.MoveToFront(el)
	return it.entry, Hit
}

// Put stores an entry under key for the given generation, replacing any
// existing entry and evicting from the LRU tail past the bound. A
// straggler from an older generation never regresses a newer entry — a
// slow pre-swap leader finishing after the swap must not de-cache the
// hot key the current generation already recomputed.
func (c *Cache) Put(key string, gen uint64, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		it := el.Value.(*cacheItem)
		if it.gen > gen {
			return
		}
		it.gen, it.entry = gen, e
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheItem{key: key, gen: gen, entry: e})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheItem).key)
	}
}

// Len reports the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Flight coalesces concurrent calls that share a key: the first caller
// (the leader) runs fn, everyone else blocks and reuses its result. The
// zero value is ready to use. A FlightKey carries the generation, so a
// leader from before a swap is never joined after it.
type Flight struct {
	mu sync.Mutex
	m  map[FlightKey]*flightCall
}

// FlightKey identifies one coalescable computation: a cache key at the
// generation it is computed for.
type FlightKey struct {
	Gen uint64
	Key string
}

type flightCall struct {
	wg  sync.WaitGroup
	val *Entry
}

// Do runs fn under the key, coalescing with an in-flight identical
// call. The second return reports whether the result was shared from
// another caller's run. If the leader's fn panics, the panic
// propagates to the leader, the key is retired, and waiters receive a
// nil Entry — a key must never stay wedged past the panic (the HTTP
// server recovers handler panics, so the process outlives them).
func (f *Flight) Do(key FlightKey, fn func() *Entry) (*Entry, bool) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[FlightKey]*flightCall)
	}
	if c, ok := f.m[key]; ok {
		f.mu.Unlock()
		c.wg.Wait()
		return c.val, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	f.m[key] = c
	f.mu.Unlock()

	defer func() {
		f.mu.Lock()
		delete(f.m, key)
		f.mu.Unlock()
		c.wg.Done()
	}()
	c.val = fn()
	return c.val, false
}

// Gate is a semaphore admission controller: at most capacity units of
// query work run concurrently; excess work is refused immediately, never
// queued. A nil Gate admits everything.
type Gate struct {
	slots chan struct{}
}

// NewGate creates a gate admitting capacity concurrent acquisitions.
// capacity <= 0 returns nil — an unlimited gate.
func NewGate(capacity int) *Gate {
	if capacity <= 0 {
		return nil
	}
	return &Gate{slots: make(chan struct{}, capacity)}
}

// TryAcquire claims a slot without blocking, reporting success.
func (g *Gate) TryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (g *Gate) Release() {
	if g != nil {
		<-g.slots
	}
}

// InFlight reports the currently claimed slots (0 for a nil gate).
func (g *Gate) InFlight() int {
	if g == nil {
		return 0
	}
	return len(g.slots)
}

// Capacity reports the slot bound (0 = unlimited).
func (g *Gate) Capacity() int {
	if g == nil {
		return 0
	}
	return cap(g.slots)
}

// ---- Metrics ----

// Latencies use obs.Histogram: power-of-two buckets over nanoseconds
// with linear interpolation inside a bucket — coarse but constant-size
// and mergeable, which is all /api/metrics and Retry-After need. Exact
// client-side percentiles belong to the bench harness; the same
// histograms feed the Prometheus exposition through Collect.
type endpointStats struct {
	count     uint64
	errors    uint64 // responses with status >= 400
	hits      uint64
	misses    uint64
	stale     uint64
	coalesced uint64
	shed      uint64
	lat       obs.Histogram
}

// Metrics aggregates per-endpoint serving statistics. Safe for
// concurrent use; the zero value is not ready — use NewMetrics.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	endpoints map[string]*endpointStats
}

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: make(map[string]*endpointStats)}
}

func (m *Metrics) get(endpoint string) *endpointStats {
	s, ok := m.endpoints[endpoint]
	if !ok {
		s = &endpointStats{}
		m.endpoints[endpoint] = s
	}
	return s
}

// CacheState is how a response was produced, for the per-endpoint cache
// counters and the X-Octopus-Cache response header.
type CacheState string

const (
	// StateHit: served from the cache at the current generation.
	StateHit CacheState = "hit"
	// StateMiss: computed by this request's own engine run.
	StateMiss CacheState = "miss"
	// StateStale: computed after evicting an entry from an older
	// generation — the invalidation path a snapshot swap triggers. The
	// stale counter itself is advanced by StaleEvict at eviction time
	// (the request may still end up coalesced or shed); Observe treats
	// StateStale as a miss.
	StateStale CacheState = "stale"
	// StateCoalesced: reused from a concurrent identical request's run.
	StateCoalesced CacheState = "coalesced"
	// StateShed: refused by the admission gate (429). The shed counter
	// is advanced by Shed when the gate refuses; Observe only records
	// the request itself.
	StateShed CacheState = "shed"
	// StateBypass: endpoint does not participate in caching.
	StateBypass CacheState = "bypass"
)

// Observe records one served response.
func (m *Metrics) Observe(endpoint string, state CacheState, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.get(endpoint)
	s.count++
	if status >= 400 {
		s.errors++
	}
	switch state {
	case StateHit:
		s.hits++
	case StateMiss, StateStale:
		s.misses++
	case StateCoalesced:
		s.coalesced++
	}
	s.lat.Observe(d)
}

// Shed records one admission-control rejection for the endpoint.
func (m *Metrics) Shed(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.get(endpoint).shed++
}

// StaleEvict records one generation-mismatch eviction for the endpoint.
func (m *Metrics) StaleEvict(endpoint string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.get(endpoint).stale++
}

// RetryAfterSeconds derives a shed-response backoff hint from the
// endpoint's observed service time: the live p99 latency (never below
// the p50), rounded up to whole seconds, floored at 1s and capped at
// 60s. A fast endpoint tells shed clients to come back in a second; a
// slow one pushes them out proportionally to how long its answers
// actually take, so retries land when a slot is plausibly free.
func (m *Metrics) RetryAfterSeconds(endpoint string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.endpoints[endpoint]
	if !ok {
		return 1
	}
	p99 := s.lat.Quantile(0.99)
	secs := int(math.Ceil(p99 / 1e9))
	switch {
	case secs < 1:
		return 1
	case secs > 60:
		return 60
	default:
		return secs
	}
}

// EndpointSnapshot is the JSON-ready per-endpoint report.
type EndpointSnapshot struct {
	Count     uint64 `json:"count"`
	Errors    uint64 `json:"errors"`
	Hits      uint64 `json:"cacheHits"`
	Misses    uint64 `json:"cacheMisses"`
	Stale     uint64 `json:"cacheStale"`
	Coalesced uint64 `json:"coalesced"`
	Shed      uint64 `json:"shed"`
	// HitRatio and ShedRatio are derived directly (hits/count and
	// shed/count, 0 when no requests were seen), so dashboards don't
	// re-divide raw counters.
	HitRatio  float64 `json:"cacheHitRatio"`
	ShedRatio float64 `json:"shedRatio"`
	MeanMs    float64 `json:"meanMillis"`
	P50Ms     float64 `json:"p50Millis"`
	P99Ms     float64 `json:"p99Millis"`
	MaxMs     float64 `json:"maxMillis"`
}

// Snapshot is the JSON-ready full metrics report.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Requests      uint64  `json:"requests"`
	Shed          uint64  `json:"shed"`
	// HitRatio and ShedRatio aggregate across all endpoints (0 when no
	// requests were seen).
	HitRatio  float64                     `json:"cacheHitRatio"`
	ShedRatio float64                     `json:"shedRatio"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	// EndpointNames lists the endpoints sorted, so renderers have a
	// stable iteration order.
	EndpointNames []string `json:"endpointNames"`
}

// Report renders a point-in-time snapshot of every endpoint's counters.
func (m *Metrics) Report() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Endpoints:     make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for name, s := range m.endpoints {
		lat := s.lat.Snapshot()
		ep := EndpointSnapshot{
			Count:     s.count,
			Errors:    s.errors,
			Hits:      s.hits,
			Misses:    s.misses,
			Stale:     s.stale,
			Coalesced: s.coalesced,
			Shed:      s.shed,
			P50Ms:     lat.Quantile(0.50) / 1e6,
			P99Ms:     lat.Quantile(0.99) / 1e6,
			MaxMs:     float64(lat.MaxNs) / 1e6,
		}
		if s.count > 0 {
			ep.MeanMs = float64(lat.SumNs) / float64(s.count) / 1e6
			ep.HitRatio = float64(s.hits) / float64(s.count)
			ep.ShedRatio = float64(s.shed) / float64(s.count)
		}
		out.Endpoints[name] = ep
		out.EndpointNames = append(out.EndpointNames, name)
		out.Requests += s.count
		out.Shed += s.shed
		out.HitRatio += float64(s.hits)
	}
	if out.Requests > 0 {
		out.HitRatio /= float64(out.Requests)
		out.ShedRatio = float64(out.Shed) / float64(out.Requests)
	} else {
		out.HitRatio = 0
	}
	sort.Strings(out.EndpointNames)
	return out
}

// Collect writes the per-endpoint serving counters and latency
// histograms into a Prometheus scrape — the same numbers /api/metrics
// reports as JSON, under stable metric names. Register a Metrics on an
// obs.Registry to expose them.
func (m *Metrics) Collect(w *obs.MetricWriter) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name                                                string
		count, errors, hits, misses, stale, coalesced, shed uint64
		lat                                                 obs.HistSnapshot
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		s := m.endpoints[name]
		rows = append(rows, row{
			name: name, count: s.count, errors: s.errors, hits: s.hits,
			misses: s.misses, stale: s.stale, coalesced: s.coalesced,
			shed: s.shed, lat: s.lat.Snapshot(),
		})
	}
	m.mu.Unlock()

	for _, r := range rows {
		l := []string{"endpoint", r.name}
		w.Counter("octopus_requests_total", "Requests served, by endpoint.", float64(r.count), l...)
		w.Counter("octopus_request_errors_total", "Responses with status >= 400, by endpoint.", float64(r.errors), l...)
		w.Counter("octopus_cache_hits_total", "Cache hits at the current generation, by endpoint.", float64(r.hits), l...)
		w.Counter("octopus_cache_misses_total", "Cache misses (including stale recomputes), by endpoint.", float64(r.misses), l...)
		w.Counter("octopus_cache_stale_evictions_total", "Generation-mismatch evictions, by endpoint.", float64(r.stale), l...)
		w.Counter("octopus_coalesced_total", "Requests served from a concurrent identical run, by endpoint.", float64(r.coalesced), l...)
		w.Counter("octopus_shed_total", "Requests refused by the admission gate (429), by endpoint.", float64(r.shed), l...)
		w.Histogram("octopus_request_duration_seconds", "Request latency, by endpoint.", r.lat, l...)
	}
}
