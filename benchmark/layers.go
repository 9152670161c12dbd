package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/mia"
	"octopus/internal/obs"
	"octopus/internal/otim"
	"octopus/internal/qcache"
	"octopus/internal/store"
	"octopus/internal/stream"
	"octopus/internal/tags"
	"octopus/internal/topic"
)

// layers measures each layer from outside, around the calls into it:
// nothing outside benchmark/ gains a span or a counter for this.
type layers struct {
	sys *core.System
	res *result
}

// engineChain executes each request at every nested entry point below
// the socket — server → core → engine (otim | tags | mia) and topic —
// one span per entry point into tr, under the given parent spans (nil: each
// request's server span is a root). The server here has cache and
// tracing off, so its self time is parameter parsing and rendering.
// It also sets the layer timing metrics and the engines' work counts
// from the cost ledger.
func (l *layers) engineChain(tr *tracer, reqs []request, parents []int) error {
	sys := l.sys
	srv := inProcess(sys, -1, -1)
	defer srv.Close()
	engine := otim.NewEngine(sys.OTIMIndex())
	calc := mia.NewCalc(sys.Graph())
	pools := make([][]string, sys.Graph().NumNodes())
	for u := range pools {
		pools[u] = sys.UserKeywords(graph.NodeID(u))
	}
	suggester := tags.NewSuggester(sys.TagsIndex(), sys.Keywords(), pools)

	var cost obs.Cost
	var pathNodes, pathEdges uint64 // the paths endpoint's own walks
	var count [numKinds]float64
	var failed error
	fail := func(q request, err error) {
		if err != nil && failed == nil {
			failed = fmt.Errorf("%s in process: %w", q.path, err)
		}
	}
	for i, q := range reqs {
		kind := kindNames[q.kind]
		count[q.kind]++
		parent := -1
		if parents != nil {
			parent = parents[i]
		}
		sp := tr.record(i, kind, "server", parent, func() {
			if code, body := serve(srv, q.path); code != http.StatusOK {
				fail(q, fmt.Errorf("status %d: %.120s", code, body))
			}
		})
		switch q.kind {
		case kindIM:
			cp := tr.record(i, kind, "core", sp, func() {
				_, err := sys.DiscoverInfluencers(q.words, core.DiscoverOptions{K: q.k, Theta: 0.01, Context: context.Background()})
				fail(q, err)
			})
			gamma, _ := sys.Keywords().InferGamma(q.words)
			tr.record(i, kind, "topic", cp, func() { sys.Keywords().InferGamma(q.words) })
			tr.record(i, kind, "otim", cp, func() {
				_, err := engine.Query(gamma, otim.QueryOptions{K: q.k, Theta: 0.01, Cost: &cost})
				fail(q, err)
			})
		case kindSuggest:
			u, err := sys.ResolveUser(q.user)
			fail(q, err)
			cp := tr.record(i, kind, "core", sp, func() {
				_, err := sys.SuggestKeywords(u, q.k, tags.SuggestOptions{})
				fail(q, err)
			})
			tr.record(i, kind, "tags", cp, func() {
				_, err := suggester.Suggest(u, tags.SuggestOptions{K: q.k, Cost: &cost})
				fail(q, err)
			})
		case kindPaths:
			u, err := sys.ResolveUser(q.user)
			fail(q, err)
			cp := tr.record(i, kind, "core", sp, func() {
				_, err := sys.InfluencePaths(u, core.PathOptions{Theta: q.theta, MaxNodes: 200})
				fail(q, err)
			})
			// OTIM's exact evaluations walk MIA trees into the same ledger.
			before := cost.MIA
			calc.SetCost(&cost)
			tr.record(i, kind, "mia", cp, func() {
				prop := sys.Propagation()
				gamma := topic.Uniform(prop.NumTopics())
				calc.MIOA(func(e graph.EdgeID) float64 { return prop.EdgeProb(e, gamma) }, u, q.theta, 200)
			})
			calc.SetCost(nil)
			pathNodes += cost.MIA.Nodes - before.Nodes
			pathEdges += cost.MIA.Edges - before.Edges
		}
	}
	if failed != nil {
		return failed
	}

	dur := durations(tr.spans)
	self := selfTimes(tr.spans)
	var coreSelf, render []time.Duration
	for _, kind := range kindNames {
		coreSelf = append(coreSelf, self[layerKey{kind, "core"}]...)
		render = append(render, self[layerKey{kind, "server"}]...)
	}
	l.res.set("topic.infer_us", us(p50(dur[layerKey{"im", "topic"}])), "us")
	l.res.set("otim.query_ms", ms(p50(dur[layerKey{"im", "otim"}])), "ms")
	l.res.set("tags.suggest_ms", ms(p50(dur[layerKey{"suggest", "tags"}])), "ms")
	l.res.set("mia.tree_us", us(p50(dur[layerKey{"paths", "mia"}])), "us")
	l.res.set("core.self_us", us(p50(coreSelf)), "us")
	l.res.set("server.render_us", us(p50(render)), "us")

	// Work counts are per request of the scenario that does the work.
	im, sg, pa := count[kindIM], count[kindSuggest], count[kindPaths]
	l.res.set("otim.cheap_bounds", float64(cost.OTIM.CheapBounds)/im, "count")
	l.res.set("otim.local_bounds", float64(cost.OTIM.LocalBounds)/im, "count")
	l.res.set("otim.exact_evals", float64(cost.OTIM.ExactEvals)/im, "count")
	l.res.set("otim.samples_mixed", float64(cost.OTIM.SamplesMixed)/im, "count")
	l.res.set("otim.exact_per_bound", float64(cost.OTIM.ExactEvals)/float64(cost.OTIM.CheapBounds+cost.OTIM.LocalBounds), "ratio")
	l.res.set("tags.polls", float64(cost.Tags.Polls)/sg, "count")
	l.res.set("tags.coins", float64(cost.Tags.Coins)/sg, "count")
	l.res.set("mia.nodes", float64(pathNodes)/pa, "count")
	l.res.set("mia.edges", float64(pathEdges)/pa, "count")
	return nil
}

// hitPath times a warm-cache hit through the in-process server with
// the default trace ring and with tracing off, turn and turn about; the
// difference is what tracing costs a hit. It returns each request's
// traced-hit duration (the median of its rounds).
func (l *layers) hitPath(reqs []request) []time.Duration {
	const rounds = 5
	traced, untraced := inProcess(l.sys, 0, 0), inProcess(l.sys, 0, -1)
	defer traced.Close()
	defer untraced.Close()
	for _, q := range reqs { // fill both caches
		serve(traced, q.path)
		serve(untraced, q.path)
	}
	per := make([][]time.Duration, len(reqs))
	var on, off []time.Duration
	for r := 0; r < rounds; r++ {
		for i, q := range reqs {
			t := time.Now()
			serve(traced, q.path)
			d := time.Since(t)
			per[i] = append(per[i], d)
			on = append(on, d)
			t = time.Now()
			serve(untraced, q.path)
			off = append(off, time.Since(t))
		}
	}
	l.res.set("server.hit_us", us(p50(on)), "us")
	l.res.set("server.trace_overhead_us", us(p50(on)-p50(off)), "us")
	hits := make([]time.Duration, len(reqs))
	for i := range per {
		hits[i] = p50(per[i])
	}
	return hits
}

// cacheProbe times qcache.Cache.Get on hits, directly.
func (l *layers) cacheProbe(reqs []request) {
	c := qcache.New(4096)
	e := &qcache.Entry{Status: http.StatusOK, Body: []byte("{}")}
	for _, q := range reqs {
		c.Put(q.path, 1, e)
	}
	const rounds = 200
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range reqs {
			c.Get(q.path, 1)
		}
	}
	l.res.set("qcache.get_ns", float64(time.Since(t).Nanoseconds())/float64(rounds*len(reqs)), "ns")
}

// toRecords renders an ingest batch's events as WAL records.
func toRecords(items []actionlog.Item, acts []actionlog.Action, edges []stream.EdgeEvent) []store.Record {
	var recs []store.Record
	for _, it := range items {
		recs = append(recs, store.Record{Kind: store.RecItem, ItemID: it.ID, Keywords: it.Keywords})
	}
	for _, a := range acts {
		recs = append(recs, store.Record{Kind: store.RecAction, User: a.User, Item: a.Item, Time: a.Time})
	}
	for _, e := range edges {
		recs = append(recs, store.Record{Kind: store.RecEdge, Src: e.Src, Dst: e.Dst})
	}
	return recs
}

// storeProbe times the durable store's calls on scratch directories:
// WAL append + fsync per 50-record batch, a checkpoint, and loading and
// mapping the snapshot it wrote.
func (l *layers) storeProbe(dir string, batches []typedBatch) error {
	d, _, err := store.Open(filepath.Join(dir, "store-probe"))
	if err != nil {
		return err
	}
	defer d.Close()
	var appendSync []time.Duration
	for _, b := range batches {
		recs := toRecords(b.items, b.acts, b.edges)
		t := time.Now()
		if err := d.Append(recs); err != nil {
			return err
		}
		if err := d.Sync(); err != nil {
			return err
		}
		appendSync = append(appendSync, time.Since(t))
	}
	l.res.set("store.wal_append_sync_us", us(p50(appendSync)), "us")

	t := time.Now()
	if err := d.Checkpoint(l.sys, 2); err != nil {
		return err
	}
	l.res.set("store.checkpoint_ms", ms(time.Since(t)), "ms")
	fi, err := os.Stat(d.SnapshotPath())
	if err != nil {
		return err
	}
	l.res.set("store.snapshot_bytes", float64(fi.Size()), "bytes")

	var load, mapped []time.Duration
	for i := 0; i < 5; i++ {
		t = time.Now()
		if _, err := store.Load(d.SnapshotPath()); err != nil {
			return err
		}
		load = append(load, time.Since(t))
		t = time.Now()
		_, m, err := store.Map(d.SnapshotPath(), store.MapOptions{})
		if err != nil {
			return err
		}
		mapped = append(mapped, time.Since(t))
		m.Close()
	}
	l.res.set("store.load_ms", ms(p50(load)), "ms")
	l.res.set("store.map_ms", ms(p50(mapped)), "ms")
	return nil
}

// typedBatch is an ingest batch as the in-process stream API takes it.
type typedBatch struct {
	items []actionlog.Item
	acts  []actionlog.Action
	edges []stream.EdgeEvent
}

func typed(bs []batch) []typedBatch {
	out := make([]typedBatch, len(bs))
	for i, b := range bs {
		for _, it := range b.actions.Items {
			out[i].items = append(out[i].items, actionlog.Item{ID: it.ID, Keywords: it.Keywords})
		}
		for _, a := range b.actions.Actions {
			out[i].acts = append(out[i].acts, actionlog.Action{User: a.User, Item: a.Item, Time: a.Time})
		}
		for _, e := range b.edges {
			out[i].edges = append(out[i].edges, stream.EdgeEvent{Src: e.Src, Dst: e.Dst})
		}
	}
	return out
}

func (b typedBatch) ingest(ls *stream.LiveSystem) error {
	if len(b.edges) > 0 {
		return ls.IngestEdges(b.edges)
	}
	return ls.IngestActions(b.items, b.acts)
}

// ackProbe times the durable acknowledgement in process: one batch
// enqueued and flushed, i.e. applied, appended to the WAL and fsynced.
func (l *layers) ackProbe(dir string, batches []typedBatch) error {
	d, _, err := store.Open(filepath.Join(dir, "ack-probe"))
	if err != nil {
		return err
	}
	// A threshold no probe reaches: this one times acks, not folds.
	ls, err := stream.NewLiveSystem(l.sys, stream.Config{Store: d, RebuildEvents: 1 << 30})
	if err != nil {
		return err
	}
	defer ls.Kill() // leave without the closing fold and checkpoint
	var ack []time.Duration
	for _, b := range batches {
		t := time.Now()
		if err := b.ingest(ls); err != nil {
			return err
		}
		if err := ls.Flush(); err != nil {
			return err
		}
		ack = append(ack, time.Since(t))
	}
	l.res.set("stream.ack_us", us(p50(ack)), "us")
	return nil
}

// foldProbe times one snapshot swap for a 4 100-event delta cut from
// the stream, three ways: an action-only delta folded incrementally, an
// edge-bearing delta folded incrementally (as the server does by
// default — falling back to a rebuild when the dirty set is too large),
// and the same edge-bearing delta rebuilt from scratch. The stage split
// is the folded system's own Timings.
func (l *layers) foldProbe(actionOnly, edgeBearing []typedBatch) error {
	swap := func(batches []typedBatch, incremental bool) (stream.Stats, error) {
		ls, err := stream.NewLiveSystem(l.sys, stream.Config{IncrementalFold: incremental, RebuildEvents: 1 << 30})
		if err != nil {
			return stream.Stats{}, err
		}
		defer ls.Close()
		for _, b := range batches {
			if err := b.ingest(ls); err != nil {
				return stream.Stats{}, err
			}
		}
		if err := ls.ForceSnapshot(); err != nil {
			return stream.Stats{}, err
		}
		return ls.Stats(), nil
	}
	acts, err := swap(actionOnly, true)
	if err != nil {
		return err
	}
	edges, err := swap(edgeBearing, true)
	if err != nil {
		return err
	}
	full, err := swap(edgeBearing, false)
	if err != nil {
		return err
	}
	l.res.set("core.fold_actions_ms", acts.LastSwapMillis, "ms")
	l.res.set("core.fold_edges_ms", edges.LastSwapMillis, "ms")
	l.res.set("core.rebuild_ms", full.LastSwapMillis, "ms")
	l.res.set("core.fold_vs_rebuild", full.LastSwapMillis/edges.LastSwapMillis, "ratio")
	l.res.set("otim.fold_ms", edges.LastFoldOTIMMillis, "ms")
	l.res.set("tags.fold_ms", edges.LastFoldTagsMillis, "ms")
	l.res.set("core.derived_ms", edges.LastFoldDerivedMillis, "ms")
	return nil
}
