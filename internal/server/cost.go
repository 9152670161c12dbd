// cost.go is the server half of query cost accounting ("EXPLAIN"): it
// decides per request whether the engines account their work, carries
// the accumulator through the request context, splices the breakdown
// into ?explain=1 responses, and feeds the per-endpoint cost-distribution
// histograms exposed at /metrics.
//
// A request carrying X-Octopus-Want-Cost (a coordinator asking its
// shard) is accounted too and gets the compact ledger in the
// X-Octopus-Cost response header beside its plain body. That header
// describes this request's own engine work — "none" on a cache hit —
// and is stamped on the wire, never stored in a cache entry.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"octopus/internal/obs"
	"octopus/internal/qcache"
)

// queryCost is the per-request cost carrier: the accumulator every
// engine layer adds into, plus whether the client asked for the
// breakdown in the response body. It exists only when accounting is on
// (?explain=1, or tracing enabled so the engine span can carry the
// counters); otherwise handlers see a nil *obs.Cost and the engines
// skip all accounting via their nil-checks.
type queryCost struct {
	cost    obs.Cost
	explain bool
}

// costHeader carries the compact ledger (obs.Cost.Compact) on a
// response; wantCostHeader on a request asks for it without explain.
const (
	costHeader     = "X-Octopus-Cost"
	wantCostHeader = "X-Octopus-Want-Cost"
)

type queryCostKey struct{}

func withQueryCost(ctx context.Context, qc *queryCost) context.Context {
	return context.WithValue(ctx, queryCostKey{}, qc)
}

func queryCostFrom(ctx context.Context) *queryCost {
	qc, _ := ctx.Value(queryCostKey{}).(*queryCost)
	return qc
}

// costFrom returns the accumulator a handler threads into the engines —
// nil when this request does no accounting, which the engine layers all
// tolerate.
func costFrom(r *http.Request) *obs.Cost {
	if qc := queryCostFrom(r.Context()); qc != nil {
		return &qc.cost
	}
	return nil
}

// explainEntry finishes an entry for an explain request: the compact
// cost summary goes on X-Octopus-Cost, and a 200 JSON body is wrapped
// as {"result":<original>,"cost":<breakdown>}. The entry is freshly
// rendered by this request's recorder, so mutating it in place is safe;
// cached entries store the wrapped form and replay byte-identically.
func explainEntry(e *qcache.Entry, c *obs.Cost) *qcache.Entry {
	e.Header.Set(costHeader, c.Compact())
	if e.Status != http.StatusOK {
		return e
	}
	cj, err := json.Marshal(c)
	if err != nil {
		return e
	}
	body := bytes.TrimSuffix(e.Body, []byte("\n"))
	var buf bytes.Buffer
	buf.Grow(len(body) + len(cj) + 24)
	buf.WriteString(`{"result":`)
	buf.Write(body)
	buf.WriteString(`,"cost":`)
	buf.Write(cj)
	buf.WriteString("}\n")
	e.Body = buf.Bytes()
	return e
}

// costMetrics keeps per-endpoint distributions of two engine-work
// summaries — nodes touched and samples mixed — exposed as raw-unit
// histograms on /metrics. Populated only for requests that accounted
// cost (explain or tracing), so the disabled path pays nothing.
type costMetrics struct {
	mu        sync.Mutex
	endpoints map[string]*costHists
}

type costHists struct {
	nodes   obs.Histogram
	samples obs.Histogram
}

func newCostMetrics() *costMetrics {
	return &costMetrics{endpoints: make(map[string]*costHists)}
}

// Observe records one accounted query. The histograms synchronize
// themselves, so only the endpoint map needs the lock.
func (c *costMetrics) Observe(endpoint string, cost *obs.Cost) {
	c.mu.Lock()
	h, ok := c.endpoints[endpoint]
	if !ok {
		h = &costHists{}
		c.endpoints[endpoint] = h
	}
	c.mu.Unlock()
	h.nodes.ObserveValue(cost.NodesTouched())
	h.samples.ObserveValue(cost.SamplesMixed())
}

// Collect writes the cost distributions into a Prometheus scrape.
func (c *costMetrics) Collect(w *obs.MetricWriter) {
	c.mu.Lock()
	names := make([]string, 0, len(c.endpoints))
	for name := range c.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name           string
		nodes, samples obs.HistSnapshot
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		h := c.endpoints[name]
		rows = append(rows, row{name: name, nodes: h.nodes.Snapshot(), samples: h.samples.Snapshot()})
	}
	c.mu.Unlock()

	for _, r := range rows {
		l := []string{"endpoint", r.name}
		w.CountHistogram("octopus_query_nodes_touched",
			"Graph nodes touched per accounted query (ball walks + RR sampling), by endpoint.", r.nodes, l...)
		w.CountHistogram("octopus_query_samples_mixed",
			"Samples and trees mixed per accounted query, by endpoint.", r.samples, l...)
	}
}
