package obs

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage inside a request trace. Offsets are relative
// to the trace start, so a span tree renders without clock math. The
// engine span additionally carries the query's cost counters when the
// request accounted for them.
type Span struct {
	Name           string  `json:"name"`
	OffsetMicros   float64 `json:"offsetMicros"`
	DurationMicros float64 `json:"durationMicros"`
	Cost           *Cost   `json:"cost,omitempty"`
}

// Trace is one completed request: what /api/debug/traces serves and
// what the slow-query log emits.
type Trace struct {
	ID             string    `json:"id"`
	Endpoint       string    `json:"endpoint"`
	Start          time.Time `json:"start"`
	DurationMillis float64   `json:"durationMillis"`
	Status         int       `json:"status"`
	Generation     uint64    `json:"generation"`
	Cache          string    `json:"cache"`
	Spans          []Span    `json:"spans"`
}

// Tracer assigns ids to requests, collects their spans, keeps the last
// ringSize completed traces in memory, and logs traces slower than the
// slow threshold as structured records. A nil Tracer is valid and
// records nothing — the disabled state.
//
// A trace allocates only what it publishes. The ring is a fixed array
// of trace values with their spans held inline, so publishing is one
// value copy under the lock; spans are opened through value handles,
// not closures; and ActiveTraces are recycled once they end. What a
// request still pays is its id: minted as hex, or adopted from the
// caller (Start), which is how one id follows a request from a
// coordinator into its shards.
type Tracer struct {
	ringSize int
	slow     time.Duration
	logger   *slog.Logger

	seq  atomic.Uint64
	base uint64
	free sync.Pool // ended *ActiveTrace, ready for reuse

	mu   sync.Mutex
	ring []record // oldest-first circular buffer
	next int      // ring insertion point
	n    int      // traces stored (≤ ringSize)
}

// record is a trace with its spans held inline: the shape of both an
// in-flight trace and a ring slot, so publishing copies one value.
type record struct {
	t      Trace
	spans  [maxSpans]Span
	nspans int
}

// export returns the trace with its own copy of the spans.
func (r *record) export() Trace {
	t := r.t
	t.Spans = append([]Span(nil), r.spans[:r.nspans]...)
	return t
}

// NewTracer creates a tracer keeping the last ringSize traces
// (minimum 1). Traces that take slow or longer are logged through
// logger at level WARN; slow <= 0 disables the slow-query log, a nil
// logger falls back to NopLogger.
func NewTracer(ringSize int, slow time.Duration, logger *slog.Logger) *Tracer {
	if ringSize < 1 {
		ringSize = 1
	}
	if logger == nil {
		logger = NopLogger()
	}
	return &Tracer{
		ringSize: ringSize,
		slow:     slow,
		logger:   logger,
		base:     splitmix64(uint64(time.Now().UnixNano())),
		ring:     make([]record, ringSize),
	}
}

// splitmix64 scrambles a counter into a well-mixed 64-bit id.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maxIDLen bounds an adopted trace id: a minted id is at most 16 hex
// digits (one uint64).
const maxIDLen = 16

// validID reports whether id is a well-formed trace id: 1 to 16
// lowercase hex digits, the form Start mints.
func validID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Start opens a trace for one request. A well-formed id (validID) is
// adopted, so a request forwarded with its caller's id joins the
// caller's trace; any other id — "" included — gets a fresh one.
// Returns nil on a nil tracer, and every ActiveTrace method is
// nil-receiver safe, so call sites need no enabled-checks.
func (t *Tracer) Start(endpoint, id string) *ActiveTrace {
	if t == nil {
		return nil
	}
	a, _ := t.free.Get().(*ActiveTrace)
	if a == nil {
		a = new(ActiveTrace)
	}
	*a = ActiveTrace{tracer: t, start: time.Now()}
	if !validID(id) {
		id = strconv.FormatUint(splitmix64(t.base^t.seq.Add(1)), 16)
	}
	a.rec.t.ID = id
	a.rec.t.Endpoint = endpoint
	a.rec.t.Start = a.start
	return a
}

// Recent returns up to n completed traces, newest first. n <= 0 means
// the whole ring. Safe to call on a nil tracer (returns an empty
// slice).
func (t *Tracer) Recent(n int) []Trace {
	if t == nil {
		return []Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest entry; walk backwards.
		idx := (t.next - 1 - i + t.ringSize*2) % t.ringSize
		out = append(out, t.ring[idx].export())
	}
	return out
}

// RingSize returns the ring capacity (0 for a nil tracer).
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return t.ringSize
}

// finish publishes a's record into the ring (and the slow-query log)
// and recycles a.
func (t *Tracer) finish(a *ActiveTrace) {
	t.mu.Lock()
	t.ring[t.next] = a.rec
	t.next = (t.next + 1) % t.ringSize
	if t.n < t.ringSize {
		t.n++
	}
	t.mu.Unlock()
	if tr := &a.rec.t; t.slow > 0 && tr.DurationMillis >= float64(t.slow)/1e6 {
		attrs := []any{
			slog.String("trace", tr.ID),
			slog.String("endpoint", tr.Endpoint),
			slog.Float64("millis", tr.DurationMillis),
			slog.Int("status", tr.Status),
			slog.Uint64("generation", tr.Generation),
			slog.String("cache", tr.Cache),
		}
		for _, sp := range a.rec.spans[:a.rec.nspans] {
			attrs = append(attrs, slog.Float64("span_"+sp.Name+"_micros", sp.DurationMicros))
		}
		t.logger.Warn("slow query", attrs...)
	}
	t.free.Put(a)
}

// maxSpans bounds the spans a single trace keeps; the serving path uses
// four (cache, coalesce, gate, engine).
const maxSpans = 8

// ActiveTrace is a trace being built by one in-flight request. It is
// owned by that request's goroutine and is not safe for concurrent use
// — the serving path hands it down through the request, never across
// requests. End publishes and recycles it, so it must not be touched
// after End. All methods are nil-receiver safe.
type ActiveTrace struct {
	tracer *Tracer
	start  time.Time
	rec    record
	done   bool
}

// ID returns the trace id ("" on nil).
func (a *ActiveTrace) ID() string {
	if a == nil {
		return ""
	}
	return a.rec.t.ID
}

// SpanHandle ends the span Span opened. The zero handle — from a nil
// trace, or one past the span bound — ends nothing.
type SpanHandle struct {
	a  *ActiveTrace
	i  int
	t0 time.Time
}

// Span opens a named span and returns the handle that ends it. Spans
// past the per-trace bound are dropped.
func (a *ActiveTrace) Span(name string) SpanHandle {
	if a == nil || a.rec.nspans >= maxSpans {
		return SpanHandle{}
	}
	i := a.rec.nspans
	a.rec.nspans++
	t0 := time.Now()
	a.rec.spans[i] = Span{Name: name, OffsetMicros: float64(t0.Sub(a.start).Nanoseconds()) / 1e3}
	return SpanHandle{a: a, i: i, t0: t0}
}

// End records the span's duration.
func (h SpanHandle) End() {
	if h.a != nil {
		h.a.rec.spans[h.i].DurationMicros = float64(time.Since(h.t0).Nanoseconds()) / 1e3
	}
}

// AttachCost hangs the query's cost counters on the most recently
// opened span (the engine span on the serving path). The pointer is
// retained by the published trace, so callers must not reuse the Cost
// for another request.
func (a *ActiveTrace) AttachCost(c *Cost) {
	if a == nil || c == nil || a.rec.nspans == 0 {
		return
	}
	a.rec.spans[a.rec.nspans-1].Cost = c
}

// SetGeneration records the snapshot generation the request was pinned
// to.
func (a *ActiveTrace) SetGeneration(gen uint64) {
	if a != nil {
		a.rec.t.Generation = gen
	}
}

// SetCache records how the response was produced (hit, miss, ...).
func (a *ActiveTrace) SetCache(state string) {
	if a != nil {
		a.rec.t.Cache = state
	}
}

// End completes the trace with the response status, publishes it to
// the tracer's ring (and the slow-query log when it qualifies) and
// recycles the ActiveTrace for a later Start, so it must not be used
// afterwards.
func (a *ActiveTrace) End(status int) {
	if a == nil || a.done {
		return
	}
	a.done = true
	a.rec.t.Status = status
	a.rec.t.DurationMillis = float64(time.Since(a.start).Nanoseconds()) / 1e6
	a.tracer.finish(a)
}

type traceCtxKey struct{}

// WithTrace attaches an active trace to a request context.
func WithTrace(ctx context.Context, a *ActiveTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, a)
}

// TraceFrom extracts the active trace from a context (nil if absent,
// which every ActiveTrace method tolerates).
func TraceFrom(ctx context.Context) *ActiveTrace {
	a, _ := ctx.Value(traceCtxKey{}).(*ActiveTrace)
	return a
}
