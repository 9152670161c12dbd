package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. The spans of one request
// share its index as Trace; Parent is the ID of the span that caused
// this one, or -1 at the top.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Kind   string        `json:"kind"`  // im | suggest | paths
	Name   string        `json:"layer"` // socket, server, core, otim, tags, mia, topic, shard
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the
// traced run ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record times fn as one span and returns the span's ID. The traced
// run calls each entry point separately, outermost first, so a child's
// interval does not lie inside its parent's — the parent link, not the
// clock, says which call it belongs to.
func (t *tracer) record(trace int, kind, name string, parent int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Trace: trace, Kind: kind, Name: name, Start: start, End: end})
	return len(t.spans) - 1
}

// synthetic records a span of a known duration (measured in another
// pass) under a parent, starting where the parent started.
func (t *tracer) synthetic(trace int, kind, name string, parent int, d time.Duration) int {
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Trace: trace, Kind: kind, Name: name, Start: start, End: start + d})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// layerKey names one layer on one scenario.
type layerKey struct{ kind, name string }

// selfTimes returns, per (scenario, layer), each span's self time: its
// duration minus the durations of the spans it caused.
func selfTimes(spans []span) map[layerKey][]time.Duration {
	children := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[layerKey][]time.Duration{}
	for _, s := range spans {
		k := layerKey{s.Kind, s.Name}
		out[k] = append(out[k], s.End-s.Start-children[s.ID])
	}
	return out
}

// durations returns, per (scenario, layer), each span's full duration.
func durations(spans []span) map[layerKey][]time.Duration {
	out := map[layerKey][]time.Duration{}
	for _, s := range spans {
		k := layerKey{s.Kind, s.Name}
		out[k] = append(out[k], s.End-s.Start)
	}
	return out
}
