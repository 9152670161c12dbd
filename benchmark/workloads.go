package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// The four workloads (names are normative: later issues cite them).
const (
	engineMix   = "engine_mix"
	cachedZipf  = "cached_zipf"
	liveIngest  = "live_ingest"
	fleet2Shard = "fleet_2shard"
)

var workloadNames = []string{engineMix, cachedZipf, liveIngest, fleet2Shard}

// Load sizes per second of -seconds, fixed so that both sides of a
// comparison answer the identical request list. They put the measured
// phase of each workload at about -seconds on the 2-core reference box.
const (
	clients       = 2    // closed-loop clients = nproc
	setupReps     = 3    // set-ups per run; setup_s is their median
	engineRate    = 160  // engine_mix / fleet_2shard requests per second of run
	cachedRate    = 8500 // cached_zipf requests per second of run
	poolRate      = 17   // distinct requests in the Zipf pool per second of run (512 at 30 s)
	ingestRate    = 1000 // live_ingest events per second, open loop
	sampleEvery   = 50   // 1 in 50 responses is byte-compared
	deadlineTimes = 3    // a phase 3× over its planned length is a failed run
)

// deployment is one workload's running processes over one corpus.
type deployment struct {
	corpus *corpus
	procs  []*proc // every server process, shards first
	front  *proc   // where reads are sent
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

// deploy is one complete set-up of a workload: the corpus recipe, then
// its processes.
func (e *env) deploy(workload, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := prepareCorpus(dir)
	if err != nil {
		return nil, err
	}
	if workload == fleet2Shard {
		if err := c.split(2); err != nil {
			return nil, err
		}
	}
	return e.launch(workload, c)
}

// launch starts a workload's real server binaries over a prepared
// corpus — default flags plus only those the workload names — and
// waits for each until /api/status answers 200.
func (e *env) launch(workload string, c *corpus) (*deployment, error) {
	d := &deployment{corpus: c}
	t := time.Now()
	var err error
	switch workload {
	case engineMix:
		d.front, err = e.start(workload, "-load", c.snapshot, "-mmap", "-cache-entries", "-1")
	case cachedZipf:
		d.front, err = e.start(workload, "-load", c.snapshot, "-mmap")
	case liveIngest:
		d.front, err = e.start(workload, "-load", c.snapshot, "-ingest", "-wal", filepath.Join(filepath.Dir(c.snapshot), "wal"))
	case fleet2Shard:
		var urls []string
		for k, snap := range c.shards {
			p, err := e.start(fmt.Sprintf("%s.shard%d", workload, k), "-load", snap, "-mmap", "-cache-entries", "-1")
			if err != nil {
				d.stop()
				return nil, err
			}
			d.procs = append(d.procs, p)
			urls = append(urls, p.url)
		}
		d.front, err = e.start(workload+".coordinator", "-coordinator",
			"-shard-addrs="+strings.Join(urls, ","), "-cache-entries", "-1")
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, d.front)
	c.stages["server.ready_ms"] = metric{ms(time.Since(t)), "ms"}
	return d, nil
}

// plan is a workload's load, generated from the seed alone so that a
// measured run and a traced run of the same seed work the same lists.
type plan struct {
	pool   []request // the distinct requests behind a Zipf list; nil for the engine lists
	reads  []request
	stream []batch // live_ingest: the replayed stream, a whole number of folds
	drill  []batch // live_ingest: the crash drill's acked-but-unfolded tail
}

func makePlan(workload string, seed uint64, c *corpus, seconds int) (*plan, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	pop := c.population()
	switch workload {
	case engineMix, fleet2Shard:
		return &plan{reads: pop.mixed(r, engineRate*seconds)}, nil
	case cachedZipf:
		pool := pop.mixed(r, poolRate*seconds)
		return &plan{pool: pool, reads: zipfDraws(r, pool, cachedRate*seconds)}, nil
	}
	pool := pop.mixed(r, poolRate*seconds)
	// Longer than the one reader can get through: it reads until the
	// last batch is visible, not until the list ends.
	p := &plan{pool: pool, reads: zipfDraws(r, pool, cachedRate*(seconds+10))}
	folds := int(math.Round(float64(seconds*ingestRate) / (foldBatches * batchEvents)))
	if folds < 1 {
		folds = 1
	}
	// Held-out edges replay in a seeded order, not clustered by source.
	held := append([][2]int32(nil), c.heldEdges...)
	r.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	stream, err := cutStream(c.heldEpisodes, held, folds*foldBatches+drillBatches)
	if err != nil {
		return nil, err
	}
	p.stream, p.drill = stream[:folds*foldBatches], stream[folds*foldBatches:]
	return p, nil
}

// runWorkload measures one workload end to end: set-up (several times,
// for a steady setup_s), the workload's load, its correctness checks,
// and the kill-and-restart drill.
func (e *env) runWorkload(workload string, seed uint64, seconds int) (*result, error) {
	res := newResult(workload, seed, seconds, false)
	var d *deployment
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
			os.RemoveAll(filepath.Dir(d.corpus.snapshot))
		}
		t := time.Now()
		var err error
		if d, err = e.deploy(workload, filepath.Join(e.tmp, fmt.Sprintf("%s-setup%d", workload, i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.stop()
	for name, v := range d.corpus.stages {
		res.Metrics[name] = v
	}

	pl, err := makePlan(workload, seed, d.corpus, seconds)
	if err != nil {
		return nil, err
	}
	deadline := time.Duration(deadlineTimes*seconds) * time.Second
	var warmup time.Duration
	var measured *phase
	switch workload {
	case engineMix:
		measured = closedLoop("measured", d.front.url, pl.reads, clients, deadline, nil, sampleEvery, nil)
		compareWithReference(res, d, pl.reads, measured)
	case cachedZipf:
		warm := closedLoop("warm-up", d.front.url, pl.pool, clients, deadline, nil, 0, nil)
		res.Phases = append(res.Phases, warm)
		warmup = warm.wall
		measured = closedLoop("measured", d.front.url, pl.reads, clients, deadline, nil, sampleEvery, nil)
		compareWithReference(res, d, pl.reads, measured)
	case liveIngest:
		if measured, warmup, err = e.ingestAndRead(res, d, pl, deadline); err != nil {
			return nil, err
		}
	case fleet2Shard:
		measured = closedLoop("measured", d.front.url, pl.reads, clients, deadline, nil, sampleEvery, noShardMissing)
		compareWithRepeat(res, d, pl.reads, measured)
	}
	res.Phases = append(res.Phases, measured)
	res.set("setup_s", median(setups)+warmup.Seconds(), "s")
	readMetrics(res, measured)

	if workload != liveIngest { // live_ingest ran its own drill, with acked events at stake
		want := d.corpus.baseCounts()
		if workload == fleet2Shard {
			want.Episodes = -1 // items straddling shards are replicated
		}
		if err := e.crashDrill(res, d, want); err != nil {
			return nil, err
		}
	}
	res.finish()
	if !res.Correct {
		for _, p := range d.procs {
			fmt.Fprintf(os.Stderr, "--- tail of %s ---\n%s\n", p.log, tail(p.log, 20))
		}
	}
	return res, nil
}

// readMetrics derives the read-side end-to-end metrics of a measured
// phase: throughput (200 responses over wall time), and latency per
// scenario — a median, p95 for IM, and as detail the highest tail
// percentile with ≥10 samples beyond it.
func readMetrics(res *result, p *phase) {
	res.set("qps", float64(p.OK)/p.wall.Seconds(), "req/s")
	for k, lat := range p.lat {
		if len(lat) == 0 {
			continue
		}
		res.set(kindNames[k]+"_p50_ms", ms(percentile(lat, 0.5)), "ms")
		res.set(kindNames[k]+"_samples", float64(len(lat)), "count")
		if k == kindIM {
			res.set("im_p95_ms", ms(percentile(lat, 0.95)), "ms")
		}
		if p := highestTail(len(lat)); p > 0 {
			res.set(fmt.Sprintf("%s_p%g_ms", kindNames[k], p*100), ms(percentile(lat, p)), "ms")
		}
	}
}

func noShardMissing(h http.Header) error {
	if v := h.Get("X-Octopus-Shards-Missing"); v != "" {
		return fmt.Errorf("partial answer: X-Octopus-Shards-Missing: %s", v)
	}
	return nil
}

// nonEmpty decodes a sampled response and checks that the scenario's
// result is there: seeds for im, path nodes for paths. A suggestion
// must name its user but may carry no keyword — about a quarter of the
// degree-skewed users reach nobody in the influencer index, and an
// empty list is the correct (and cheap) answer for them.
func nonEmpty(q request, body []byte) error {
	var v struct {
		Seeds []json.RawMessage `json:"seeds"`
		User  string            `json:"user"`
		Nodes []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if n := [numKinds]int{len(v.Seeds), len(v.User), len(v.Nodes)}[q.kind]; n == 0 {
		return errors.New("empty result")
	}
	return nil
}

// compareWithReference byte-compares the sampled responses of a static
// workload with the in-process server's answer for the same snapshot.
func compareWithReference(res *result, d *deployment, reqs []request, p *phase) {
	ref := inProcess(d.corpus.sys, -1, -1)
	defer ref.Close()
	seen := map[string]bool{} // a Zipf list samples its hot requests many times over
	for i, body := range p.sampled {
		if seen[reqs[i].path] {
			continue
		}
		seen[reqs[i].path] = true
		if err := nonEmpty(reqs[i], body); err != nil {
			res.failf("%s: %v", reqs[i].path, err)
		}
		if code, want := serve(ref, reqs[i].path); code != http.StatusOK || !bytes.Equal(body, want) {
			res.failf("%s: binary's answer differs from in-process server.New(sys) (status %d)", reqs[i].path, code)
		}
	}
	if len(p.sampled) == 0 {
		res.failf("no response was sampled for the byte comparison")
	}
}

// compareWithRepeat re-issues the sampled requests: with the cache off
// the coordinator recomputes each, and the answer must repeat byte for
// byte (the fleet's merged ranking is approximate by design, so the
// single-process answer is not the reference here).
func compareWithRepeat(res *result, d *deployment, reqs []request, p *phase) {
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	for i, body := range p.sampled {
		if err := nonEmpty(reqs[i], body); err != nil {
			res.failf("%s: %v", reqs[i].path, err)
		}
		again, hdr, err := get(hc, d.front.url+reqs[i].path)
		if err == nil {
			err = noShardMissing(hdr)
		}
		if err != nil {
			res.failf("%s: repeat: %v", reqs[i].path, err)
		} else if !bytes.Equal(body, again) {
			res.failf("%s: coordinator answer does not repeat byte-identically", reqs[i].path)
		}
	}
	if len(p.sampled) == 0 {
		res.failf("no response was sampled for the repeat comparison")
	}
}

// status fetches /api/status.
func status(hc *http.Client, base string) (counts, error) {
	body, _, err := get(hc, base+"/api/status")
	if err != nil {
		return counts{}, err
	}
	var c counts
	return c, json.Unmarshal(body, &c)
}

// crashDrill ends a run. It first records rss_mb — the sum of the
// server processes' peak resident sets, which die with them — then
// SIGKILLs every process of the deployment and restarts each on its old
// command line and address. recover_s is the time from the kill until
// the front answers /api/status 200; the answer must show the expected
// corpus (a negative Episodes skips that dimension).
func (e *env) crashDrill(res *result, d *deployment, want counts) error {
	rss := 0.0
	for _, p := range d.procs {
		v, err := p.peakRSS()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rss += v
	}
	res.set("rss_mb", rss, "MiB")

	t := time.Now()
	for _, p := range d.procs {
		p.kill()
	}
	for i, p := range d.procs {
		np, err := e.restart(p)
		if err != nil {
			return fmt.Errorf("crash drill: %w", err)
		}
		d.procs[i] = np
	}
	d.front = d.procs[len(d.procs)-1]
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	got, err := status(hc, d.front.url)
	res.set("recover_s", time.Since(t).Seconds(), "s")
	if want.Episodes < 0 {
		got.Episodes = want.Episodes
	}
	if err == nil && got != want {
		err = fmt.Errorf("got %+v, want %+v", got, want)
	}
	drill := &phase{Name: "crash drill"}
	drill.count("/api/status after restart", err)
	res.Phases = append(res.Phases, drill)
	return nil
}

// ingestStats is the part of /api/ingest/stats the harness reads.
type ingestStats struct {
	Version          uint64  `json:"version"`
	Accepted         uint64  `json:"accepted"`
	Dropped          uint64  `json:"droppedBufferFull"`
	Invalid          uint64  `json:"invalid"`
	Duplicates       uint64  `json:"duplicates"`
	Applied          uint64  `json:"applied"`
	Pending          int     `json:"pending"`
	Snapshots        uint64  `json:"snapshots"`
	FoldFailures     uint64  `json:"foldFailures"`
	TotalSwapMillis  float64 `json:"totalSwapMillis"`
	IncrementalFolds uint64  `json:"incrementalFolds"`
	FoldFallbacks    uint64  `json:"foldFallbacks"`
	LastDirtyNodes   int64   `json:"lastFoldDirtyNodes"`
	WALRecords       uint64  `json:"walRecords"`
	WALSyncs         uint64  `json:"walSyncs"`
	WALBytesLogged   int64   `json:"walBytesLogged"`
	WALErrors        uint64  `json:"walErrors"`
	Checkpoints      uint64  `json:"checkpoints"`
}

func fetchIngestStats(hc *http.Client, base string) (ingestStats, error) {
	var st ingestStats
	body, _, err := get(hc, base+"/api/ingest/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// post sends one ingest batch; anything but 202 is an error.
func post(hc *http.Client, base string, b batch) error {
	resp, err := hc.Post(base+b.path, "application/json", bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) // only read to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return nil
}

// replayed is the outcome of an open-loop stream replay.
type replayed struct {
	ingest  *phase
	acks    []time.Duration // batch due time → 202, sorted
	visible []time.Duration // batch due time → in the serving snapshot, sorted
	lags    []time.Duration // how late the generator sent, sorted
}

// replay sends the batches open loop at ingestRate events/s — each due
// at its slot whether or not the previous one was acknowledged — while
// a poller on its own connection watches /api/ingest/stats: a batch is
// visible at the first poll that shows applied − pending (the events
// folded into the serving snapshot) at or past the batch's cumulative
// event count. It returns when every batch is visible or the deadline
// passed; whenVisible (if non-nil) runs at that moment.
func replay(base string, batches []batch, deadline time.Duration, whenVisible func()) (*replayed, error) {
	cum := make([]uint64, len(batches))
	n := uint64(0)
	for i, b := range batches {
		n += uint64(b.events)
		cum[i] = n
	}
	sched := schedule{start: time.Now().Add(20 * time.Millisecond),
		interval: time.Second * batchEvents / ingestRate}
	out := &replayed{ingest: &phase{Name: "measured ingest"}}
	var pollErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if whenVisible != nil {
			defer whenVisible()
		}
		hc := newClient(1)
		defer hc.CloseIdleConnections()
		for len(out.visible) < len(batches) {
			if time.Since(sched.start) > deadline {
				pollErr = fmt.Errorf("deadline %s passed with %d of %d batches visible", deadline, len(out.visible), len(batches))
				return
			}
			st, err := fetchIngestStats(hc, base)
			now := time.Now()
			if err != nil {
				pollErr = err
				return
			}
			folded := st.Applied - uint64(st.Pending)
			for len(out.visible) < len(batches) && cum[len(out.visible)] <= folded {
				out.visible = append(out.visible, now.Sub(sched.due(len(out.visible))))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	hc := newClient(1)
	defer hc.CloseIdleConnections()
	in := out.ingest
	for i, b := range batches {
		out.lags = append(out.lags, sched.wait(i))
		err := post(hc, base, b)
		in.count(fmt.Sprintf("batch %d", i), err)
		if err == nil {
			out.acks = append(out.acks, time.Since(sched.due(i)))
		}
	}
	<-done
	if pollErr != nil { // batches that never became visible missed their deadline
		in.Failed += len(batches) - len(out.visible)
		in.Attempted += len(batches) - len(out.visible)
		if in.FirstErr == "" {
			in.FirstErr = pollErr.Error()
		}
	}
	if len(out.acks) == 0 || len(out.visible) == 0 {
		return nil, fmt.Errorf("stream replay: no batch was acknowledged and became visible (%s)", in.FirstErr)
	}
	sortDurations(out.acks)
	sortDurations(out.visible)
	sortDurations(out.lags)
	return out, nil
}

// report sets the write-side timings and, from the server's own
// counters, what the pipeline did.
func (rp *replayed) report(res *result, prefix string, st ingestStats) {
	res.set(prefix+"ack_p50_ms", ms(percentile(rp.acks, 0.5)), "ms")
	res.set(prefix+"visible_p50_ms", ms(percentile(rp.visible, 0.5)), "ms")
	res.set(prefix+"visible_p95_ms", ms(percentile(rp.visible, 0.95)), "ms")
	res.set(prefix+"generator_lag_p50_ms", ms(percentile(rp.lags, 0.5)), "ms")
	res.set(prefix+"generator_lag_max_ms", ms(rp.lags[len(rp.lags)-1]), "ms")
	res.set("stream.folds", float64(st.Snapshots), "count")
	res.set("stream.incremental_folds", float64(st.IncrementalFolds), "count")
	res.set("stream.fold_fallbacks", float64(st.FoldFallbacks), "count")
	res.set("stream.dirty_nodes", float64(st.LastDirtyNodes), "count")
	res.set("stream.swap_ms", st.TotalSwapMillis/math.Max(1, float64(st.Snapshots)), "ms")
	res.set("store.wal_syncs_per_batch", float64(st.WALSyncs)/float64(rp.ingest.OK), "ratio")
	res.set("store.wal_bytes_per_event", float64(st.WALBytesLogged)/float64(st.Applied), "bytes")
}

// ingestAndRead is the live_ingest load: the held-out stream replayed
// open loop while one closed-loop reader works the cached_zipf pool,
// then the crash drill over acked-but-unfolded events.
func (e *env) ingestAndRead(res *result, d *deployment, pl *plan, deadline time.Duration) (*phase, time.Duration, error) {
	base := d.front.url
	warm := closedLoop("warm-up", base, pl.pool, 1, deadline, nil, 0, nil)
	res.Phases = append(res.Phases, warm)

	stopReads := make(chan struct{})
	readerDone := make(chan *phase)
	go func() {
		readerDone <- closedLoop("measured reads", base, pl.reads, 1, deadline, stopReads, 0, nil)
	}()
	rp, err := replay(base, pl.stream, deadline, func() { close(stopReads) })
	reader := <-readerDone
	if err != nil {
		return nil, 0, fmt.Errorf("%w\n%s", err, tail(d.front.log, 20))
	}
	res.Phases = append(res.Phases, rp.ingest)

	// Everything sent was accepted, applied and folded, and nothing was
	// lost on the way.
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	sent, items, edges := countBatches(pl.stream)
	st, err := fetchIngestStats(hc, base)
	if err != nil {
		return nil, 0, err
	}
	rp.report(res, "", st)
	if st.Accepted != sent || st.Applied != st.Accepted {
		res.failf("ingest stats: sent %d, accepted %d, applied %d", sent, st.Accepted, st.Applied)
	}
	if st.Dropped+st.Invalid+st.Duplicates+st.FoldFailures+st.WALErrors != 0 {
		res.failf("ingest stats: dropped %d invalid %d duplicates %d foldFailures %d walErrors %d, want all 0",
			st.Dropped, st.Invalid, st.Duplicates, st.FoldFailures, st.WALErrors)
	}
	want := d.corpus.baseCounts()
	want.Edges += edges
	want.Episodes += items
	if got, err := status(hc, base); err != nil || got != want {
		res.failf("after the stream /api/status = %+v (err %v), want base+stream %+v", got, err, want)
	}

	// Crash drill: 1 000 more events, acked and logged but short of a
	// fold, then SIGKILL. The restart must serve every one of them.
	drill := &phase{Name: "crash drill ingest"}
	res.Phases = append(res.Phases, drill)
	for i, b := range pl.drill {
		drill.count(fmt.Sprintf("drill batch %d", i), post(hc, base, b))
	}
	drillSent, drillItems, drillEdges := countBatches(pl.drill)
	for t := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		if st, err = fetchIngestStats(hc, base); err != nil {
			return nil, 0, err
		}
		if st.Applied == sent+drillSent && st.WALRecords >= drillSent {
			break
		}
		if time.Since(t) > 10*time.Second {
			res.failf("crash drill: %d of %d events applied, %d in the WAL after 10 s", st.Applied, sent+drillSent, st.WALRecords)
			break
		}
	}
	want.Edges += drillEdges
	want.Episodes += drillItems
	return reader, warm.wall, e.crashDrill(res, d, want)
}

func countBatches(bs []batch) (events uint64, items, edges int) {
	for _, b := range bs {
		events += uint64(b.events)
		items += len(b.actions.Items)
		edges += len(b.edges)
	}
	return events, items, edges
}
