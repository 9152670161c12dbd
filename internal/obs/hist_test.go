package obs

import (
	"math"
	"sort"
	"testing"
	"time"
)

// exactQuantile computes the true q-th quantile of samples (nearest-rank
// with the same rank convention the histogram uses).
func exactQuantile(samples []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return float64(s[rank-1].Nanoseconds())
}

// TestHistogramQuantileErrorBounds pins the estimator's accuracy on
// known distributions: in-bucket interpolation must land within 10% of
// the true p50/p99 on a uniform distribution spanning two buckets, and
// within the 2× log-bucket bound on an exponential-ish spread. This is
// the contract Retry-After inherits — a quantile overestimate inflates
// every shed client's backoff.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	t.Run("uniform 1-2ms", func(t *testing.T) {
		var h Histogram
		var samples []time.Duration
		for i := 0; i < 10000; i++ {
			d := time.Duration(1e6 + i*100) // 1.0ms .. 2.0ms
			samples = append(samples, d)
			h.Observe(d)
		}
		for _, q := range []float64{0.50, 0.90, 0.99} {
			want := exactQuantile(samples, q)
			got := h.Quantile(q)
			if relErr := math.Abs(got-want) / want; relErr > 0.10 {
				t.Errorf("q=%.2f: got %.0fns want %.0fns (rel err %.1f%%, cap 10%%)", q, got, want, relErr*100)
			}
		}
	})

	t.Run("exponential spread", func(t *testing.T) {
		var h Histogram
		var samples []time.Duration
		// Deterministic exponential-ish spread: 200 samples per decade
		// step across 100µs..1s.
		for _, base := range []time.Duration{100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
			for i := 0; i < 200; i++ {
				d := base + time.Duration(i)*base/200
				samples = append(samples, d)
				h.Observe(d)
			}
		}
		for _, q := range []float64{0.50, 0.99} {
			want := exactQuantile(samples, q)
			got := h.Quantile(q)
			if got < want/2 || got > want*2 {
				t.Errorf("q=%.2f: got %.0fns want %.0fns, outside 2x log-bucket bound", q, got, want)
			}
		}
	})
}

// TestHistogramQuantileClamps covers the audit findings: the estimate
// must never leave the observed [min, max] — in particular the top
// bucket, whose nominal upper edge 2^64 overflows uint64 and used to
// collapse the interpolation, and a lone sample mid-bucket, which the
// pre-interpolation code reported at the bucket's upper edge.
func TestHistogramQuantileClamps(t *testing.T) {
	t.Run("top bucket overflow", func(t *testing.T) {
		var h Histogram
		huge := time.Duration(math.MaxInt64) // lands in bucket 63
		h.Observe(huge)
		h.Observe(huge)
		got := h.Quantile(0.99)
		if want := float64(huge.Nanoseconds()); got != want {
			t.Fatalf("p99 of top-bucket-only samples = %g, want clamped to max %g", got, want)
		}
	})

	t.Run("single sample", func(t *testing.T) {
		var h Histogram
		h.Observe(3 * time.Millisecond)
		for _, q := range []float64{0.0, 0.5, 0.99, 1.0} {
			if got := h.Quantile(q); got != 3e6 {
				t.Fatalf("q=%.2f of a single 3ms sample = %gns, want exactly 3e6", q, got)
			}
		}
	})

	t.Run("never below min", func(t *testing.T) {
		var h Histogram
		// All samples in the top half of one bucket: naive lo-edge
		// interpolation would dip below the true minimum for small q.
		for i := 0; i < 100; i++ {
			h.Observe(1900*time.Microsecond + time.Duration(i)*time.Microsecond)
		}
		if got := h.Quantile(0.01); got < 1.9e6 {
			t.Fatalf("p1 = %gns, below observed min 1.9e6", got)
		}
		if got := h.Quantile(0.99); got > 2e6 {
			t.Fatalf("p99 = %gns, above observed max", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if got := h.Quantile(0.5); got != 0 {
			t.Fatalf("quantile of empty histogram = %g, want 0", got)
		}
	})
}

func TestHistogramCounters(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Max(); got != 2e6 {
		t.Fatalf("max = %d, want 2e6", got)
	}
	snap := h.Snapshot()
	if snap.SumNs != 3e6 {
		t.Fatalf("sum = %d, want 3e6", snap.SumNs)
	}
	if snap.MinNs != 0 {
		t.Fatalf("min = %d, want 0 (negative clamped)", snap.MinNs)
	}
	var total uint64
	for _, n := range snap.Buckets {
		total += n
	}
	if total != 3 {
		t.Fatalf("bucket total = %d, want 3", total)
	}
}
