// coord.go is the scatter-gather half of the sharded serving tier: a
// coordinator Server answers the same HTTP API as a single-process
// server, but its engine is a fleet of shard servers (internal/shard
// corpora served by ordinary octopus processes). Every query pins the
// fleet roster and its user routes. A read only one shard can answer
// goes to that shard alone, and its answer is replayed verbatim:
//
//   - suggest, keywords and forward paths: the shard owning the user.
//     Every shard lists the user keys it holds data for at /api/owners;
//     the coordinator reads those tables when it starts and whenever a
//     shard's probed generation changes, and routes a key claimed by
//     exactly one shard whose table is current and who was up at pin
//     time. Anything else — an unknown key, a key several shards claim,
//     a stale table, a down owner, paths?reverse=1 (in-edges live on
//     every shard) — fans out and takes the longest success;
//   - radar: the lowest-index live shard (the topic model is shared).
//
// When that one shard cannot answer (unreachable, 429, 5xx) the rest of
// the roster is asked as in a fan-out. Every other query fans out to
// the live shards in parallel and merges:
//
//   - im: each shard's seed list carries cumulative spreads, so each
//     seed's marginal gain is summed across shards (each shard owns a
//     disjoint edge set), seeds re-ranked by summed gain with node-id
//     tie-breaks, and spreads re-rendered as the running sum;
//   - im/targeted: per-seed spreads summed across shards, seeds
//     re-ranked the same way;
//   - complete: candidates merged by key keeping the max weight;
//   - status: corpus counts summed (node/topic/vocabulary maxima — the
//     id space and models are global).
//
// Shard cost ledgers come back out of band: when the coordinator
// accounts a request the client did not ask to explain, it sends
// X-Octopus-Want-Cost and the shard answers with its plain body plus
// the compact X-Octopus-Cost header, which the coordinator parses and
// merges. A client's explain=1 travels to the shards as is.
//
// When every reachable shard but one is down — or the fleet has one
// shard — the coordinator replays the single success byte-for-byte,
// which is what makes a 1-shard coordinator indistinguishable from the
// process behind it. Partial answers (some shards unreachable, or
// answering 429/5xx beside another shard's 200) carry
// the X-Octopus-Shards-Missing header, a shards_missing payload field
// on merged object payloads, and are never cached; see
// internal/shard's package documentation for the contract.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/par"
)

// shardsMissingHeader lists the comma-separated indexes of shards that
// did not contribute to a response. Its presence marks a partial
// answer, which the serving layer refuses to cache.
const shardsMissingHeader = "X-Octopus-Shards-Missing"

// maxShardResponse bounds one shard's response body on the coordinator
// side.
const maxShardResponse = 64 << 20

// errShardDown marks a shard that was already down when the request
// pinned the roster — no call is attempted.
var errShardDown = errors.New("shard marked down")

// CoordinatorOptions tunes the fan-out layer of a coordinator Server.
type CoordinatorOptions struct {
	// ShardTimeout bounds each per-shard call during a fan-out; a shard
	// exceeding it is treated as missing for this request and marked
	// down (default 5s).
	ShardTimeout time.Duration
	// ProbeInterval is the background health-probe cadence that detects
	// recovered shards and generation changes (default 2s).
	ProbeInterval time.Duration
	// Client issues the shard requests. nil uses a client whose
	// transport keeps one idle connection per shard for each request the
	// admission gate admits (per-request contexts carry the timeout).
	Client *http.Client
}

// unboundedIdleConns is the idle connections kept per shard when the
// admission gate admits everything.
const unboundedIdleConns = 64

func (o *CoordinatorOptions) fill(shards, maxInflight int) {
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 5 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.Client == nil {
		// The default transport keeps two idle connections per host, so
		// every burst of more than two admitted requests re-dials.
		idle := maxInflight
		if idle <= 0 {
			idle = unboundedIdleConns
		}
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = idle
		t.MaxIdleConns = idle * shards
		o.Client = &http.Client{Transport: t}
	}
}

// NewCoordinator creates a coordinator Server fanning out over the
// shard servers at the given base URLs (e.g. "http://127.0.0.1:9101").
// The coordinator is read-only: ingest endpoints answer 404 as on a
// static server. It runs the full serving shell — cache, coalescing,
// admission, metrics, tracing, SLO — over the remote engine, so cached
// merged responses replay byte-identically like local ones. One
// synchronous probe round runs before returning, so the first request
// sees the fleet's actual state; Close stops the background prober.
// Every address must be an absolute http or https URL with a host, and
// no shard may be listed twice (trailing slashes aside): a shard counted
// twice would double every summed merge.
func NewCoordinator(addrs []string, opt Options, copt CoordinatorOptions) (*Server, error) {
	if len(addrs) == 0 {
		return nil, errors.New("coordinator needs at least one shard address")
	}
	clean := make([]string, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for i, a := range addrs {
		u, err := url.Parse(a)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("coordinator: shard address %q is not an absolute http(s) URL with a host", a)
		}
		clean[i] = strings.TrimRight(a, "/")
		if seen[clean[i]] {
			return nil, fmt.Errorf("coordinator: shard address %q is listed twice", a)
		}
		seen[clean[i]] = true
	}
	copt.fill(len(clean), opt.MaxInflight)
	f := newFleet(clean, copt)
	s := &Server{coord: f}
	s.engine = &remoteEngine{s: s, f: f}
	s.assemble(opt)
	f.probeOnce()
	go f.probeLoop(s.done, copt.ProbeInterval)
	return s, nil
}

// shardHealth is one shard's row in /api/health and /api/metrics.
type shardHealth struct {
	Index      int    `json:"index"`
	Addr       string `json:"addr"`
	Up         bool   `json:"up"`
	Generation uint64 `json:"generation"`
}

// fleet is the coordinator's view of its shards: the fixed address
// roster plus per-shard liveness and last-seen generation. Any change
// to that vector, and every new owner table, bumps the fleet
// generation, which is the generation coordinator responses are tagged
// and cached under — so a shard going down, coming back, or folding a
// new snapshot implicitly invalidates every cached merged answer,
// exactly like a snapshot swap does on a single process.
type fleet struct {
	addrs   []string
	client  *http.Client
	timeout time.Duration

	mu     sync.Mutex
	up     []bool
	gens   []uint64
	fgen   uint64
	tables []ownerTable // per shard: the user keys it holds
	routes *routes      // rebuilt whenever gens or tables change
}

// ownerTable is one shard's /api/owners answer and the generation it
// was read at.
type ownerTable struct {
	ok   bool
	gen  uint64
	keys []string
}

// routes is an immutable user key → owning shard map, pinned with the
// roster. A key several shards claim maps to -1.
type routes struct {
	owner   map[string]int32
	current []bool // shard i's table was read at its probed generation
}

// newFleet starts the roster over normalized addresses (no trailing
// slash, no duplicates).
func newFleet(addrs []string, copt CoordinatorOptions) *fleet {
	f := &fleet{
		addrs:   addrs,
		client:  copt.Client,
		timeout: copt.ShardTimeout,
		up:      make([]bool, len(addrs)),
		gens:    make([]uint64, len(addrs)),
		fgen:    1,
		tables:  make([]ownerTable, len(addrs)),
		routes:  &routes{current: make([]bool, len(addrs))},
	}
	// Optimistic start: shards are presumed up until a probe or call
	// says otherwise, so a coordinator started moments before its fleet
	// converges rather than starving.
	for i := range f.up {
		f.up[i] = true
	}
	return f
}

// roster pins the live-shard vector, the user routes and the fleet
// generation for one request.
func (f *fleet) roster() ([]bool, *routes, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	up := make([]bool, len(f.up))
	copy(up, f.up)
	return up, f.routes, f.fgen
}

// rerouteLocked replaces the routes after a change to gens or, with
// tablesChanged, to the owner tables. f.mu must be held.
func (f *fleet) rerouteLocked(tablesChanged bool) {
	rt := &routes{owner: f.routes.owner, current: make([]bool, len(f.addrs))}
	if tablesChanged {
		n := 0
		for _, t := range f.tables {
			n += len(t.keys)
		}
		rt.owner = make(map[string]int32, n)
		for i, t := range f.tables {
			for _, k := range t.keys {
				if _, claimed := rt.owner[k]; claimed {
					rt.owner[k] = -1
				} else {
					rt.owner[k] = int32(i)
				}
			}
		}
	}
	for i, t := range f.tables {
		rt.current[i] = t.ok && t.gen == f.gens[i]
	}
	f.routes = rt
}

// markDown records a failed call or probe. Fan-out paths call it
// synchronously, so one timed-out request stops the next from waiting
// on the same dead shard.
func (f *fleet) markDown(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.up[i] {
		f.up[i] = false
		f.fgen++
	}
}

// markUp records a successful probe and the generation the shard
// reported.
func (f *fleet) markUp(i int, gen uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.up[i] || f.gens[i] != gen {
		f.up[i] = true
		if f.gens[i] != gen {
			f.gens[i] = gen
			f.rerouteLocked(false)
		}
		f.fgen++
	}
}

// health snapshots the per-shard state for /api/health, /api/metrics
// and the Prometheus gauges.
func (f *fleet) health() []shardHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]shardHealth, len(f.addrs))
	for i, a := range f.addrs {
		out[i] = shardHealth{Index: i, Addr: a, Up: f.up[i], Generation: f.gens[i]}
	}
	return out
}

// probeOnce probes every shard's /api/health in parallel, then rereads
// the owner tables that went stale. Any decodable health answer counts
// as up — a degraded shard still serves queries; only a transport
// failure marks it down.
func (f *fleet) probeOnce() {
	par.Each(len(f.addrs), len(f.addrs), func(_, i int) {
		rep := f.call(i, shardRequest{method: http.MethodGet, path: "/api/health"})
		if rep.err != nil {
			return // call already marked it down (every roster URL parses)
		}
		var h struct {
			Generation uint64 `json:"generation"`
		}
		if err := json.Unmarshal(rep.body, &h); err != nil {
			f.markDown(i)
			return
		}
		f.markUp(i, h.Generation)
	})
	f.refreshOwners()
}

// refreshOwners reads /api/owners from every up shard whose table is
// missing or older than its probed generation. A shard that cannot
// answer keeps its old table, and its users fan out until it can.
func (f *fleet) refreshOwners() {
	f.mu.Lock()
	var stale []int
	for i, up := range f.up {
		if up && !f.routes.current[i] {
			stale = append(stale, i)
		}
	}
	f.mu.Unlock()
	if len(stale) == 0 {
		return
	}
	fetched := make([]ownerTable, len(stale))
	par.Each(len(stale), len(stale), func(_, j int) {
		rep := f.call(stale[j], shardRequest{method: http.MethodGet, path: "/api/owners"})
		if rep.err != nil || rep.status != http.StatusOK {
			return
		}
		gen, err := strconv.ParseUint(rep.header.Get(generationHeader), 10, 64)
		var keys []string
		if err != nil || json.Unmarshal(rep.body, &keys) != nil {
			return
		}
		fetched[j] = ownerTable{ok: true, gen: gen, keys: keys}
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	changed := false
	for j, t := range fetched {
		if t.ok {
			f.tables[stale[j]] = t
			changed = true
		}
	}
	if changed {
		f.rerouteLocked(true)
		f.fgen++
	}
}

func (f *fleet) probeLoop(done <-chan struct{}, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			f.probeOnce()
		}
	}
}

// shardRequest is one request the coordinator sends to its shards.
type shardRequest struct {
	method, path string
	body         []byte
	wantCost     bool   // ask for the cost ledger in the X-Octopus-Cost header
	trace        string // the coordinator request's trace id, forwarded as X-Octopus-Trace
}

// shardReply is one shard's contribution to a fan-out: a transport
// error (the shard is missing for this request), or a status, headers
// and body.
type shardReply struct {
	shard  int
	status int
	header http.Header
	body   []byte
	err    error
}

// call issues one bounded request to shard i. Transport failures mark
// the shard down immediately.
func (f *fleet) call(i int, sr shardRequest) shardReply {
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	var rd io.Reader
	if sr.body != nil {
		rd = bytes.NewReader(sr.body)
	}
	req, err := http.NewRequestWithContext(ctx, sr.method, f.addrs[i]+sr.path, rd)
	if err != nil {
		return shardReply{shard: i, err: err}
	}
	if sr.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sr.wantCost {
		req.Header.Set(wantCostHeader, "1")
	}
	if sr.trace != "" {
		req.Header.Set(traceHeader, sr.trace)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.markDown(i)
		return shardReply{shard: i, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		f.markDown(i)
		return shardReply{shard: i, err: err}
	}
	return shardReply{shard: i, status: resp.StatusCode, header: resp.Header, body: b}
}

// remoteEngine pins fleet rosters as engine views.
type remoteEngine struct {
	s *Server
	f *fleet
}

func (e *remoteEngine) Acquire() (engineView, uint64, func()) {
	up, rt, fgen := e.f.roster()
	return &remoteView{s: e.s, f: e.f, up: up, routes: rt}, fgen, noopRelease
}

// noopRelease is a remote view's release: the roster is a copy, so
// there is nothing to pin.
func noopRelease() {}

// remoteView answers queries from one pinned roster and its routes:
// only shards up at pin time are consulted, so the response is a pure
// function of (view, request) — the same property localView gets from
// its pinned snapshot.
type remoteView struct {
	s      *Server
	f      *fleet
	up     []bool
	routes *routes
}

// fanout sends one request to every shard in the pinned roster but
// skip (-1 for none) in parallel (internal/par), each under its own
// timeout. Shards down at pin time are reported as errShardDown
// without a call.
func (v *remoteView) fanout(sr shardRequest, skip int) []shardReply {
	n := len(v.f.addrs)
	replies := make([]shardReply, n)
	par.Each(n, n, func(_, i int) {
		switch {
		case i == skip:
		case !v.up[i]:
			replies[i] = shardReply{shard: i, err: errShardDown}
		default:
			replies[i] = v.f.call(i, sr)
		}
	})
	return replies
}

// send asks the one shard whose answer is the fleet's (see target)
// when there is one, and every pinned shard otherwise. When the one
// shard cannot answer — unreachable, shed or broken — the rest are
// asked too, so the answer degrades exactly like a fan-out's.
func (v *remoteView) send(endpoint string, q url.Values, sr shardRequest) []shardReply {
	i := v.target(endpoint, q)
	if i < 0 {
		return v.fanout(sr, -1)
	}
	rp := v.f.call(i, sr)
	if rp.err == nil && !shardFailed(rp.status) {
		return []shardReply{rp}
	}
	replies := v.fanout(sr, i)
	replies[i] = rp
	return replies
}

// target picks the single shard that answers a read for the whole
// fleet, or -1 to fan out. A radar depends only on the fleet-wide topic
// model: the lowest-index live shard answers it. A user read goes to
// the user's owner when exactly one shard claims the key, that shard's
// table is current and it was up at pin time — except paths?reverse=1,
// since in-edges live on every shard.
func (v *remoteView) target(endpoint string, q url.Values) int {
	switch endpoint {
	case "radar":
		for i, up := range v.up {
			if up {
				return i
			}
		}
	case "paths":
		if q.Get("reverse") == "1" {
			return -1
		}
		fallthrough
	case "suggest", "keywords":
		i, ok := v.routes.owner[q.Get("user")]
		if ok && i >= 0 && v.up[i] && v.routes.current[i] {
			return int(i)
		}
	}
	return -1
}

// Query forwards the request — the method, the trace id and, for POST
// /api/im/targeted, the body — to the shards send picks and merges the
// replies. A shard adopts the forwarded id, so one trace id finds the
// request in the coordinator's and every shard's /api/debug/traces.
func (v *remoteView) Query(endpoint string, w http.ResponseWriter, r *http.Request) {
	sr := shardRequest{method: http.MethodGet, trace: obs.TraceFrom(r.Context()).ID()}
	if r.Method == http.MethodPost {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
			return
		}
		sr.method, sr.body = http.MethodPost, b
	}
	qc := queryCostFrom(r.Context())
	q := r.URL.Query()
	// Shards account cost whenever the coordinator does (explain or
	// tracing). A client's explain=1 goes to the shards, whose wrapped
	// ledgers are merged into this request's carrier and stripped from
	// the bodies, so the coordinator re-wraps exactly like a local engine
	// would. Otherwise the flag is dropped (explain=0 is byte-identical
	// to absent) and an accounted request asks for the ledger in a
	// header beside the plain body.
	explain := qc != nil && qc.explain
	if explain {
		q.Set("explain", "1")
	} else {
		q.Del("explain")
		sr.wantCost = qc != nil
	}
	sr.path = r.URL.Path + "?" + q.Encode()
	replies := v.send(endpoint, q, sr)
	switch {
	case explain:
		v.unwrapCosts(replies, qc)
	case qc != nil:
		mergeCostHeaders(replies, qc)
	}
	v.merge(endpoint, w, replies)
}

func (v *remoteView) Status(w http.ResponseWriter, r *http.Request) {
	v.merge("status", w, v.fanout(shardRequest{method: http.MethodGet, path: "/api/status"}, -1))
}

// Owners answers 404: a coordinator holds no users itself.
func (v *remoteView) Owners(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusNotFound, errors.New("a coordinator holds no users; ask its shards"))
}

// unwrapCosts strips the {"result":...,"cost":...} explain envelope
// from every successful reply, merging the per-shard ledgers into the
// request's carrier. Shards wrap only 200s, matching explainEntry.
func (v *remoteView) unwrapCosts(replies []shardReply, qc *queryCost) {
	for i, rp := range replies {
		if rp.err != nil || rp.status != http.StatusOK {
			continue
		}
		var env struct {
			Result json.RawMessage `json:"result"`
			Cost   *obs.Cost       `json:"cost"`
		}
		if err := json.Unmarshal(rp.body, &env); err != nil || env.Result == nil {
			continue
		}
		qc.cost.Merge(env.Cost)
		replies[i].body = append(env.Result, '\n')
	}
}

// mergeCostHeaders merges the X-Octopus-Cost ledger of every shard that
// answered into the request's carrier.
func mergeCostHeaders(replies []shardReply, qc *queryCost) {
	for _, rp := range replies {
		if rp.err != nil {
			continue
		}
		if c, err := obs.ParseCompact(rp.header.Get(costHeader)); err == nil {
			qc.cost.Merge(c)
		}
	}
}

// merge classifies the fan-out and writes the coordinator's answer. An
// unreachable shard is missing, and so is one that answered 429 or 5xx
// while another answered 200: it contributed nothing, so the answer is
// partial — marked, and never cached. With no 200 at all the best
// failure replays verbatim, which keeps a 1-shard fleet byte-identical
// to its shard on errors too.
func (v *remoteView) merge(endpoint string, w http.ResponseWriter, replies []shardReply) {
	var successes, failures []shardReply
	for _, rp := range replies {
		if rp.err == nil && rp.status == http.StatusOK {
			successes = append(successes, rp)
		}
	}
	var missing []int
	for _, rp := range replies {
		switch {
		case rp.err != nil, len(successes) > 0 && shardFailed(rp.status):
			missing = append(missing, rp.shard)
		case rp.status != http.StatusOK:
			failures = append(failures, rp)
		}
	}
	if len(missing) > 0 {
		ids := make([]string, len(missing))
		for i, m := range missing {
			ids[i] = strconv.Itoa(m)
		}
		w.Header().Set(shardsMissingHeader, strings.Join(ids, ","))
	}
	switch {
	case len(successes) == 0 && len(failures) == 0:
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("all %d shards unreachable", len(replies)))
	case len(successes) == 0:
		// Replay the most authoritative error verbatim: lowest status
		// (a 400 explains more than a 500), ties to the lowest shard.
		best := failures[0]
		for _, rp := range failures[1:] {
			if rp.status < best.status {
				best = rp
			}
		}
		replayRaw(w, best.status, best.body)
	case len(successes) == 1 && len(missing) == 0:
		// The complete single-success case — a 1-shard fleet, a routed
		// read, or a fan-out where the other shards erred. Verbatim replay
		// keeps the coordinator byte-identical to the shard.
		replayRaw(w, http.StatusOK, successes[0].body)
	default:
		v.mergeSuccesses(endpoint, w, successes, missing)
	}
}

// shardFailed reports a status that says the shard could not answer —
// shed (429) or broken (5xx) — rather than an answer about the request
// every shard would give, like a 400 or a 404.
func shardFailed(status int) bool {
	return status == http.StatusTooManyRequests || status >= http.StatusInternalServerError
}

// replayRaw writes a shard's body verbatim. Only the body is copied:
// shard-side serving headers (generation, cache, trace) describe the
// shard's pipeline, not the coordinator's, and would collide with the
// ones this server stamps.
func replayRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// mergeSuccesses combines ≥1 successful shard answers (typed per
// endpoint) when a verbatim replay would be wrong: several shards
// contributed, or some are missing and the payload must say so.
func (v *remoteView) mergeSuccesses(endpoint string, w http.ResponseWriter, successes []shardReply, missing []int) {
	switch endpoint {
	case "im":
		v.mergeIM(w, successes, missing)
	case "targeted":
		v.mergeTargeted(w, successes, missing)
	case "complete":
		v.mergeComplete(w, successes)
	case "status":
		v.mergeStatus(w, successes, missing)
	default:
		// A fanned-out user read or radar: the key was not routable, or
		// its owner failed. Non-owners answer with fallbacks over empty
		// state, so the longest success is the best guess.
		best := successes[0]
		for _, rp := range successes[1:] {
			if len(rp.body) > len(best.body) {
				best = rp
			}
		}
		replayRaw(w, http.StatusOK, best.body)
	}
}

// decodeAll decodes every success into out (a pointer to a slice
// element factory is overkill; callers pass a typed closure).
func decodeAll(successes []shardReply, each func(i int, body []byte) error) error {
	for i, rp := range successes {
		if err := each(i, rp.body); err != nil {
			return fmt.Errorf("shard %d: undecodable response: %w", rp.shard, err)
		}
	}
	return nil
}

// mergeIM merges keyword-IM answers (see mergeIMSeeds). γ, topics and
// the unknown-word list are fleet-wide constants (shared topic model)
// and come from the first success.
func (v *remoteView) mergeIM(w http.ResponseWriter, successes []shardReply, missing []int) {
	parts := make([]imResponse, len(successes))
	if err := decodeAll(successes, func(i int, body []byte) error {
		return json.Unmarshal(body, &parts[i])
	}); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	out := struct {
		imResponse
		ShardsMissing []int `json:"shards_missing,omitempty"`
	}{imResponse: parts[0], ShardsMissing: missing}
	lists := make([][]imSeed, len(parts))
	stats := make(map[string]float64)
	for i, p := range parts {
		lists[i] = p.Seeds
		for name, val := range p.Stats {
			if f, ok := val.(float64); ok {
				stats[name] += f
			}
		}
	}
	out.Seeds = mergeIMSeeds(lists)
	out.Stats = make(map[string]any, len(stats))
	for name, f := range stats {
		out.Stats[name] = f
	}
	writeJSON(w, http.StatusOK, out)
}

func (v *remoteView) mergeTargeted(w http.ResponseWriter, successes []shardReply, missing []int) {
	parts := make([]targetedResponse, len(successes))
	if err := decodeAll(successes, func(i int, body []byte) error {
		return json.Unmarshal(body, &parts[i])
	}); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	out := struct {
		targetedResponse
		ShardsMissing []int `json:"shards_missing,omitempty"`
	}{targetedResponse: parts[0], ShardsMissing: missing}
	out.AudienceSpread = 0
	lists := make([][]imSeed, len(parts))
	for i, p := range parts {
		out.AudienceSpread += p.AudienceSpread
		lists[i] = p.Seeds
	}
	// A targeted seed's spread is its own (singleton) spread, so it adds
	// across the disjoint per-shard edge sets as it stands.
	out.Seeds = mergeSeeds(lists, func(seeds []imSeed, i int) float64 { return seeds[i].Spread })
	writeJSON(w, http.StatusOK, out)
}

// mergeIMSeeds merges keyword-IM seed lists. A shard lists each seed
// with the cumulative spread after it, so a seed's own contribution is
// its marginal gain over the seed before it. Gains add across the
// disjoint per-shard edge sets; the merged list ranks by summed gain
// and renders each seed's spread as the running sum in ranked order —
// the single-process shape, non-decreasing down the list.
func mergeIMSeeds(lists [][]imSeed) []imSeed {
	seeds := mergeSeeds(lists, func(seeds []imSeed, i int) float64 {
		if i == 0 {
			return seeds[0].Spread
		}
		return seeds[i].Spread - seeds[i-1].Spread
	})
	total := 0.0
	for i := range seeds {
		total += seeds[i].Spread
		seeds[i].Spread = total
	}
	return seeds
}

// mergeSeeds merges per-shard seed lists into one ranked list as long
// as the longest input. A seed's merged score is the sum of score over
// the lists that hold it, taken in shard order so the merge is
// byte-repeatable; the list orders by score descending, node id
// ascending on ties, and each seed's Spread is its merged score.
func mergeSeeds(lists [][]imSeed, score func(seeds []imSeed, i int) float64) []imSeed {
	sum := make(map[int32]float64)
	info := make(map[int32]imSeed)
	k := 0
	for _, seeds := range lists {
		k = max(k, len(seeds))
		for i, s := range seeds {
			sum[s.ID] += score(seeds, i)
			if _, ok := info[s.ID]; !ok {
				info[s.ID] = s
			}
		}
	}
	ids := make([]int32, 0, len(sum))
	for id := range sum {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := sum[ids[a]], sum[ids[b]]
		if sa != sb {
			return sa > sb
		}
		return ids[a] < ids[b]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	seeds := make([]imSeed, 0, len(ids))
	for _, id := range ids {
		s := info[id]
		s.Spread = sum[id]
		seeds = append(seeds, s)
	}
	return seeds
}

// mergeComplete merges completion lists by key, keeping the maximum
// weight (names are replicated, so the owning shard — the one whose
// actions back the weight — reports the true value and the rest report
// a lower or equal one), ordered weight descending with lexicographic
// key tie-breaks like each shard's core.System.Complete.
func (v *remoteView) mergeComplete(w http.ResponseWriter, successes []shardReply) {
	byKey := make(map[string]core.Completion)
	k := 0
	err := decodeAll(successes, func(i int, body []byte) error {
		var part []core.Completion
		if err := json.Unmarshal(body, &part); err != nil {
			return err
		}
		if len(part) > k {
			k = len(part)
		}
		for _, c := range part {
			if old, ok := byKey[c.Key]; !ok || c.Weight > old.Weight {
				byKey[c.Key] = c
			}
		}
		return nil
	})
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	merged := make([]core.Completion, 0, len(byKey))
	for _, c := range byKey {
		merged = append(merged, c)
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Weight != merged[b].Weight {
			return merged[a].Weight > merged[b].Weight
		}
		return merged[a].Key < merged[b].Key
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	writeJSON(w, http.StatusOK, merged)
}

// mergeStatus sums the partitioned corpus counts; nodes, topics and
// vocabulary are fleet-wide constants (global id space, shared
// models), so they merge as maxima.
func (v *remoteView) mergeStatus(w http.ResponseWriter, successes []shardReply, missing []int) {
	parts := make([]core.Stats, len(successes))
	if err := decodeAll(successes, func(i int, body []byte) error {
		return json.Unmarshal(body, &parts[i])
	}); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	out := struct {
		core.Stats
		ShardsMissing []int `json:"shards_missing,omitempty"`
	}{Stats: parts[0], ShardsMissing: missing}
	for _, p := range parts[1:] {
		out.Nodes = max(out.Nodes, p.Nodes)
		out.Topics = max(out.Topics, p.Topics)
		out.Vocabulary = max(out.Vocabulary, p.Vocabulary)
		out.Edges += p.Edges
		out.Episodes += p.Episodes
		out.Actions += p.Actions
		out.InfluencerPolls += p.InfluencerPolls
		out.IndexEdges += p.IndexEdges
	}
	writeJSON(w, http.StatusOK, out)
}
