package obs

import (
	"sync"
	"time"
)

// HistBuckets is the fixed bucket count of a Histogram: bucket b holds
// observations in [2^b, 2^(b+1)) nanoseconds (bucket 0 additionally
// holds 0 and 1 ns; bucket 63 holds everything ≥ 2^63 ns).
const HistBuckets = 64

// Histogram is a fixed-size latency histogram over power-of-two
// nanosecond buckets. It is constant-space, cheap to observe into and
// mergeable, at the price of coarse buckets — quantile estimates use
// linear interpolation inside a bucket and are clamped to the observed
// [min, max], which bounds the relative error well below the naive 2×
// bucket width on realistic distributions (see TestHistogramQuantile
// for the pinned bounds). Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sumNs   uint64
	maxNs   uint64
	minNs   uint64
	buckets [HistBuckets]uint64
}

// histBucket returns the bucket index for a nanosecond value.
func histBucket(ns uint64) int {
	b := 0
	for v := ns; v > 1; v >>= 1 {
		b++
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d.Nanoseconds()))
}

// ObserveValue records one raw value. The bucket layout is unit-less —
// powers of two of whatever the caller observes — so the same type
// serves nanosecond latencies (Observe, rendered in seconds by
// MetricWriter.Histogram) and dimensionless counts such as per-query
// cost counters (rendered raw by MetricWriter.CountHistogram).
func (h *Histogram) ObserveValue(v uint64) {
	h.mu.Lock()
	if h.count == 0 || v < h.minNs {
		h.minNs = v
	}
	if v > h.maxNs {
		h.maxNs = v
	}
	h.count++
	h.sumNs += v
	h.buckets[histBucket(v)]++
	h.mu.Unlock()
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Max returns the largest observation in nanoseconds (0 if empty).
func (h *Histogram) Max() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxNs
}

// Quantile estimates the q-th (0..1) observation in nanoseconds.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistSnapshot is a point-in-time copy of a Histogram, safe to render
// or estimate quantiles from without holding the histogram's lock.
type HistSnapshot struct {
	Count   uint64
	SumNs   uint64
	MaxNs   uint64
	MinNs   uint64
	Buckets [HistBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Count:   h.count,
		SumNs:   h.sumNs,
		MaxNs:   h.maxNs,
		MinNs:   h.minNs,
		Buckets: h.buckets,
	}
}

// Quantile estimates the q-th (0..1) observation in nanoseconds by
// walking the buckets to the one containing the rank and interpolating
// linearly inside it. The estimate is clamped to the observed
// [min, max] so the tails never report a value outside what was
// actually seen — in particular the top bucket (b = 63, whose nominal
// upper edge 2^64 overflows) and the bucket holding the minimum don't
// smear the estimate across their full width.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.MinNs)
	}
	rank := q * float64(s.Count)
	var seen float64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) < rank {
			seen += float64(n)
			continue
		}
		lo := float64(uint64(1) << b)
		hi := lo * 2
		if b == 0 {
			lo = 0
		}
		if b == HistBuckets-1 {
			// The top bucket's nominal edge 2^64 does not fit in uint64
			// (1<<64 wraps to 0); its real upper edge is the observed max.
			hi = float64(s.MaxNs)
		}
		frac := (rank - seen) / float64(n)
		v := lo + frac*(hi-lo)
		if m := float64(s.MinNs); v < m {
			v = m
		}
		if m := float64(s.MaxNs); v > m {
			v = m
		}
		return v
	}
	return float64(s.MaxNs)
}
