package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"
)

const (
	// traceRate is how many requests per second of -seconds the traced
	// run executes at every nested entry point.
	traceRate = 20
)

// traceWorkload is the traced run: separate from the measured runs,
// single-client, and instrumented from the benchmark's own files only.
// For the first requests of the workload's list it records one span per
// nested entry point; around that it probes every layer of the table in
// README.md — in process for the engines, the serving layer, the store
// and the fold, and against real binaries for the socket, the ingest
// pipeline and the coordinator. Every probe runs whatever the workload,
// so every per-layer metric is there for each; the workload picks the
// request list and the deployment the spans and the explain ratio are
// taken on.
func (e *env) traceWorkload(workload string, seed uint64, seconds int) (*result, error) {
	res := newResult(workload, seed, seconds, true)
	dir := filepath.Join(e.tmp, workload+"-trace")
	own, err := e.deploy(workload, dir)
	if err != nil {
		return nil, err
	}
	defer own.stop()
	c := own.corpus
	if c.shards == nil {
		if err := c.split(2); err != nil {
			return nil, err
		}
	}
	for name, v := range c.stages {
		res.Metrics[name] = v
	}
	pl, err := makePlan(workload, seed, c, seconds)
	if err != nil {
		return nil, err
	}
	reqs := pl.reads[:traceRate*seconds]
	hc := newClient(1)
	defer hc.CloseIdleConnections()

	// The spans of the workload's own request path.
	tr := newTracer()
	l := &layers{sys: c.sys, res: res}
	hits := l.hitPath(reqs)
	// Tracing overhead as a user can switch it: each request without and
	// with ?explain=1 (the cost ledger).
	passes := timedPasses(res, hc, own.front.url, reqs, []string{"", "&explain=1"}, tr)
	plain, explain := passes[0], passes[1]
	switch workload {
	case engineMix:
		err = l.engineChain(tr, reqs, plain.spans)
	case cachedZipf, liveIngest:
		for i, q := range reqs {
			sp := tr.synthetic(i, kindNames[q.kind], "server", plain.spans[i], hits[i])
			if q.kind == kindIM {
				tr.record(i, "im", "topic", sp, func() { c.sys.Keywords().InferGamma(q.words) })
			}
		}
		fallthrough
	default: // the engines are off this workload's path: probe them apart from its spans
		err = l.engineChain(newTracer(), reqs, nil)
	}
	if err != nil {
		return nil, err
	}
	l.cacheProbe(reqs)

	// Compared on the IM requests: the costliest ledger, and a median
	// pooled over the mix would sit on the cliff between scenarios.
	var with, without []time.Duration
	for i, q := range reqs {
		if q.kind == kindIM {
			with, without = append(with, explain.lat[i]), append(without, plain.lat[i])
		}
	}
	res.set("trace_overhead_ratio", float64(p50(with))/float64(p50(without)), "ratio")
	if err := serverCounters(res, hc, own.front.url); err != nil {
		return nil, err
	}

	if err := e.socketProbe(res, l, c, workload, own, reqs); err != nil {
		return nil, err
	}
	if err := e.fleetProbe(res, c, workload, own, seed, seconds, tr, plain.spans); err != nil {
		return nil, err
	}
	// One fold's worth of the stream live_ingest replays for this seed.
	live, err := makePlan(liveIngest, seed, c, seconds)
	if err != nil {
		return nil, err
	}
	oneFold := live.stream[:foldBatches]
	if err := e.liveProbe(res, c, workload, own, oneFold); err != nil {
		return nil, err
	}
	var actionOnly []batch
	for _, b := range append(live.stream, live.drill...) {
		if len(b.edges) == 0 && len(actionOnly) < foldBatches {
			actionOnly = append(actionOnly, b)
		}
	}
	if err := l.foldProbe(typed(actionOnly), typed(oneFold)); err != nil {
		return nil, err
	}
	if err := l.storeProbe(dir, typed(oneFold)); err != nil {
		return nil, err
	}
	if err := l.ackProbe(dir, typed(oneFold)); err != nil {
		return nil, err
	}

	spanFile := filepath.Join(e.out, "trace_"+workload+".json")
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	printSelfTimes(workload, tr.spans)
	fmt.Printf("%s wrote %d spans to %s\n", workload, len(tr.spans), spanFile)
	res.finish()
	return res, nil
}

// pass is one single-client run over a request list against a binary.
type pass struct {
	lat   []time.Duration
	spans []int // span ID per request, when a tracer was given
}

// timedPasses sends each request single-client once per URL suffix —
// the variants of one request back to back, so that drift on a shared
// box hits them alike — after one untimed round that lets caches fill
// (what a cached deployment's users see). The first variant's requests
// become root spans named socket when tr is non-nil. Each variant is
// accounted as a phase of the result.
func timedPasses(res *result, hc *http.Client, base string, reqs []request, suffixes []string, tr *tracer) []*pass {
	out := make([]*pass, len(suffixes))
	phases := make([]*phase, len(suffixes))
	for v, suffix := range suffixes {
		out[v] = &pass{}
		phases[v] = &phase{Name: "traced reads" + suffix}
		res.Phases = append(res.Phases, phases[v])
	}
	for round := 0; round < 2; round++ {
		for i, q := range reqs {
			for v, suffix := range suffixes {
				var body []byte
				var err error
				timed := func() {
					t := time.Now()
					body, _, err = get(hc, base+q.path+suffix)
					if round == 1 {
						out[v].lat = append(out[v].lat, time.Since(t))
					}
				}
				if round == 1 && v == 0 && tr != nil {
					out[v].spans = append(out[v].spans, tr.record(i, kindNames[q.kind], "socket", -1, timed))
				} else {
					timed()
				}
				if err == nil && !json.Valid(body) {
					err = fmt.Errorf("answer is not JSON")
				}
				phases[v].count(q.path+suffix, err)
			}
		}
	}
	return out
}

// serverCounters reads the serving layer's own counters off a binary's
// /api/metrics, summed over the three scenarios.
func serverCounters(res *result, hc *http.Client, base string) error {
	body, _, err := get(hc, base+"/api/metrics")
	if err != nil {
		return err
	}
	var m struct {
		Endpoints map[string]struct {
			Count     float64 `json:"count"`
			Hits      float64 `json:"cacheHits"`
			Stale     float64 `json:"cacheStale"`
			Coalesced float64 `json:"coalesced"`
			Shed      float64 `json:"shed"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return err
	}
	var count, hits, stale, coalesced, shed float64
	for _, kind := range kindNames {
		ep := m.Endpoints[kind]
		count += ep.Count
		hits += ep.Hits
		stale += ep.Stale
		coalesced += ep.Coalesced
		shed += ep.Shed
	}
	res.set("qcache.hit_ratio", hits/count, "ratio")
	res.set("qcache.stale", stale, "count")
	res.set("qcache.coalesced", coalesced, "count")
	res.set("qcache.shed", shed, "count")
	return nil
}

// use returns the workload's own deployment when it is of the wanted
// kind, and launches a fresh one otherwise.
func (e *env) use(kind, workload string, own *deployment, c *corpus) (d *deployment, stop func(), err error) {
	if kind == workload {
		return own, func() {}, nil
	}
	d, err = e.launch(kind, c)
	if err != nil {
		return nil, nil, err
	}
	return d, d.stop, nil
}

// socketProbe measures what the socket adds to a cache hit: the real
// binary's single-client p50 over warm requests minus the in-process
// server's p50 on the same requests.
func (e *env) socketProbe(res *result, l *layers, c *corpus, workload string, own *deployment, reqs []request) error {
	d, stop, err := e.use(cachedZipf, workload, own, c)
	if err != nil {
		return err
	}
	defer stop()
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	overSocket := timedPasses(res, hc, d.front.url, reqs, []string{""}, nil)[0]
	res.set("socket.overhead_us", us(p50(overSocket.lat))-res.Metrics["server.hit_us"].Value, "us")
	return nil
}

// liveProbe replays one fold's worth of the stream against a real
// `serve -ingest -wal` binary and reads the pipeline's counters, and
// the write-side timings of the live_ingest workload, off it.
func (e *env) liveProbe(res *result, c *corpus, workload string, own *deployment, stream []batch) error {
	d, stop, err := e.use(liveIngest, workload, own, c)
	if err != nil {
		return err
	}
	defer stop()
	rp, err := replay(d.front.url, stream, time.Minute, nil)
	if err != nil {
		return err
	}
	res.Phases = append(res.Phases, rp.ingest)
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	st, err := fetchIngestStats(hc, d.front.url)
	if err != nil {
		return err
	}
	rp.report(res, "stream.", st)
	return nil
}

// fleetProbe sends the same requests to the coordinator and then to
// each shard directly: the coordinator's own share is its latency minus
// the slowest shard's. The 2-shard IM answer's seed set is compared
// with the single-process answer (Jaccard), the fleet's answer quality.
// On the fleet_2shard workload the slowest shard call becomes a span
// under the request's socket span, whose self time is then the
// coordinator's share plus the socket.
func (e *env) fleetProbe(res *result, c *corpus, workload string, own *deployment, seed uint64, seconds int, tr *tracer, sockets []int) error {
	d, stop, err := e.use(fleet2Shard, workload, own, c)
	if err != nil {
		return err
	}
	defer stop()
	pl, err := makePlan(fleet2Shard, seed, c, seconds)
	if err != nil {
		return err
	}
	reqs := pl.reads[:traceRate*seconds]
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	ph := &phase{Name: "coordinator probe"}
	res.Phases = append(res.Phases, ph)
	single := inProcess(c.sys, -1, -1)
	defer single.Close()
	var merge, slowest []time.Duration
	var shardBytes, overlap []float64
	fetch := func(url string) (body []byte, d time.Duration) {
		t := time.Now()
		body, hdr, err := get(hc, url)
		d = time.Since(t)
		if err == nil {
			err = noShardMissing(hdr)
		}
		ph.count(url, err)
		return body, d
	}
	for i, q := range reqs {
		get(hc, d.front.url+q.path) // untimed: connections and lazy state
		merged, whole := fetch(d.front.url + q.path)
		var slow time.Duration
		bytes := 0.0
		for _, p := range d.procs[:len(d.procs)-1] {
			body, took := fetch(p.url + q.path)
			bytes += float64(len(body))
			if took > slow {
				slow = took
			}
		}
		if workload == fleet2Shard { // then the probe's requests are the traced list
			tr.synthetic(i, kindNames[q.kind], "shard", sockets[i], slow)
		}
		merge = append(merge, whole-slow)
		slowest = append(slowest, slow)
		shardBytes = append(shardBytes, bytes)
		if q.kind == kindIM && merged != nil {
			_, want := serve(single, q.path)
			overlap = append(overlap, seedOverlap(merged, want))
		}
	}
	res.set("coord.merge_self_ms", ms(p50(merge)), "ms")
	res.set("coord.slowest_shard_ms", ms(p50(slowest)), "ms")
	res.set("coord.shard_bytes", median(shardBytes), "bytes")
	res.set("coord.im_seed_overlap", median(overlap), "ratio")
	return nil
}

// seedOverlap is the Jaccard similarity of two IM answers' seed sets.
func seedOverlap(a, b []byte) float64 {
	ids := func(body []byte) map[int32]bool {
		var v struct {
			Seeds []struct {
				ID int32 `json:"id"`
			} `json:"seeds"`
		}
		_ = json.Unmarshal(body, &v) // an undecodable answer has no seeds and overlaps nothing
		out := map[int32]bool{}
		for _, s := range v.Seeds {
			out[s.ID] = true
		}
		return out
	}
	x, y := ids(a), ids(b)
	both := 0
	for id := range x {
		if y[id] {
			both++
		}
	}
	if union := len(x) + len(y) - both; union > 0 {
		return float64(both) / float64(union)
	}
	return 0
}

// printSelfTimes prints, per scenario and layer, the median self time
// and its share of the scenario's top-level median, and how far the
// layers' medians are from adding up to it.
func printSelfTimes(workload string, spans []span) {
	self := selfTimes(spans)
	dur := durations(spans)
	keys := make([]layerKey, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return p50(dur[keys[i]]) > p50(dur[keys[j]])
	})
	top := map[string]layerKey{} // per scenario, the outermost layer
	sum := map[string]time.Duration{}
	serverDown := map[string]time.Duration{}
	for _, k := range keys {
		if _, ok := top[k.kind]; !ok {
			top[k.kind] = k
		}
		sum[k.kind] += p50(self[k])
		if k.name != "socket" && k.name != "shard" {
			serverDown[k.kind] += p50(self[k])
		}
	}
	for _, k := range keys {
		whole := p50(dur[top[k.kind]])
		fmt.Printf("%s self %-7s %-6s p50 %9.1f us  %5.1f %% of %s p50  (n=%d)\n", workload, k.kind, k.name,
			us(p50(self[k])), 100*float64(p50(self[k]))/float64(whole), top[k.kind].name, len(self[k]))
	}
	for kind, k := range top {
		fmt.Printf("%s self %-7s layers' medians add up to %.3f of the %s p50", workload, kind,
			float64(sum[kind])/float64(p50(dur[k])), k.name)
		if srv, ok := dur[layerKey{kind, "server"}]; ok {
			fmt.Printf(", server and below to %.3f of the server p50", float64(serverDown[kind])/float64(p50(srv)))
		}
		fmt.Println()
	}
}
