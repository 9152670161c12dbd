package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestTracerSpansAndRing(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	ids := map[string]bool{}
	for i := 0; i < 10; i++ {
		a := tr.Start("im", "")
		if a.ID() == "" {
			t.Fatal("empty trace id")
		}
		if ids[a.ID()] {
			t.Fatalf("duplicate trace id %s", a.ID())
		}
		ids[a.ID()] = true
		a.Span("cache").End()
		sp := a.Span("engine")
		time.Sleep(time.Millisecond)
		sp.End()
		a.SetGeneration(uint64(i))
		a.SetCache("miss")
		a.End(200)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d traces, want 4 (the bound)", len(recent))
	}
	// Newest first: generations 9, 8, 7, 6.
	for i, want := range []uint64{9, 8, 7, 6} {
		if recent[i].Generation != want {
			t.Fatalf("recent[%d].Generation = %d, want %d", i, recent[i].Generation, want)
		}
	}
	top := recent[0]
	if top.Status != 200 || top.Cache != "miss" || top.Endpoint != "im" {
		t.Fatalf("trace = %+v", top)
	}
	if len(top.Spans) != 2 || top.Spans[0].Name != "cache" || top.Spans[1].Name != "engine" {
		t.Fatalf("spans = %+v, want [cache engine]", top.Spans)
	}
	if top.Spans[1].DurationMicros < 500 {
		t.Fatalf("engine span = %gµs, want ≥ 500 (slept 1ms)", top.Spans[1].DurationMicros)
	}
	if top.Spans[1].OffsetMicros < top.Spans[0].OffsetMicros {
		t.Fatal("span offsets not monotone")
	}
	if _, err := json.Marshal(recent); err != nil {
		t.Fatalf("traces not JSON-marshalable: %v", err)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	a := tr.Start("im", "")
	if a != nil {
		t.Fatal("nil tracer returned a live trace")
	}
	// All nil-receiver paths must be no-ops, not panics.
	a.ID()
	a.Span("cache").End()
	a.SetGeneration(1)
	a.SetCache("hit")
	a.End(200)
	if got := tr.Recent(5); len(got) != 0 {
		t.Fatalf("nil tracer Recent = %v", got)
	}
	if tr.RingSize() != 0 {
		t.Fatal("nil tracer ring size != 0")
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(8, 2*time.Millisecond, logger)

	fast := tr.Start("im", "")
	fast.End(200)
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %s", buf.String())
	}

	slow := tr.Start("radar", "")
	slowID := slow.ID()
	sp := slow.Span("engine")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	slow.SetGeneration(3)
	slow.End(200)
	if buf.Len() == 0 {
		t.Fatal("slow trace not logged")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("slow-query log is not JSON: %v: %s", err, buf.String())
	}
	if rec["endpoint"] != "radar" || rec["trace"] != slowID {
		t.Fatalf("slow-query record = %v", rec)
	}
	if _, ok := rec["span_engine_micros"]; !ok {
		t.Fatalf("slow-query record missing span duration: %v", rec)
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTracer(2, 0, nil)
	a := tr.Start("im", "")
	ctx := WithTrace(context.Background(), a)
	if got := TraceFrom(ctx); got != a {
		t.Fatal("trace did not round-trip through context")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatal("empty context produced a trace")
	}
}

// TestTracerConcurrentBound hammers the ring from many goroutines while
// reading it, for the -race detector, and checks the bound holds
// throughout.
func TestTracerConcurrentBound(t *testing.T) {
	tr := NewTracer(16, 0, nil)
	var producers sync.WaitGroup
	for g := 0; g < 4; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for i := 0; i < 200; i++ {
				a := tr.Start(fmt.Sprintf("ep%d", g), "")
				a.Span("cache").End()
				a.End(200)
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := len(tr.Recent(0)); n > 16 {
				t.Errorf("ring grew to %d, bound is 16", n)
				return
			}
		}
	}()
	producers.Wait()
	close(stop)
	<-readerDone
	if n := len(tr.Recent(0)); n != 16 {
		t.Fatalf("ring holds %d, want exactly 16 after 800 traces", n)
	}
	if n := len(tr.Recent(5)); n != 5 {
		t.Fatalf("Recent(5) returned %d traces", n)
	}
}

// TestTraceIDAdoption: a well-formed incoming id (1–16 lowercase hex
// digits) is adopted as the trace id; anything else gets a minted one.
func TestTraceIDAdoption(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	for _, id := range []string{"0", "00ab", "deadbeef", "0123456789abcdef"} {
		a := tr.Start("im", id)
		if a.ID() != id {
			t.Errorf("well-formed id %q not adopted: got %q", id, a.ID())
		}
		a.End(200)
		if got := tr.Recent(1)[0].ID; got != id {
			t.Errorf("ring holds id %q, want adopted %q", got, id)
		}
	}
	for _, id := range []string{"", "DEADBEEF", "xyz", "0123456789abcdef0", "ab cd", "-1"} {
		a := tr.Start("im", id)
		if a.ID() == id || !validID(a.ID()) {
			t.Errorf("malformed id %q: trace id %q, want a freshly minted one", id, a.ID())
		}
		a.End(200)
	}
}

// TestRecentCopiesOutOfTheRing: the ring reuses its slots (and the
// tracer its ActiveTraces), so what Recent returned must not change
// when later traces overwrite the slots it came from.
func TestRecentCopiesOutOfTheRing(t *testing.T) {
	tr := NewTracer(2, 0, nil)
	a := tr.Start("im", "a1")
	a.Span("cache").End()
	a.Span("engine").End()
	a.End(200)
	got := tr.Recent(1)
	for i := 0; i < 4; i++ {
		b := tr.Start("paths", "")
		b.Span("gate").End()
		b.End(404)
	}
	if got[0].ID != "a1" || got[0].Status != 200 || len(got[0].Spans) != 2 ||
		got[0].Spans[0].Name != "cache" || got[0].Spans[1].Name != "engine" {
		t.Fatalf("published trace changed under later traces: %+v", got[0])
	}
	for _, r := range tr.Recent(0) {
		if r.Endpoint != "paths" || len(r.Spans) != 1 || r.Spans[0].Name != "gate" {
			t.Fatalf("recycled trace leaked state from an earlier request: %+v", r)
		}
	}
}
