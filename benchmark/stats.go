package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of a sorted,
// non-empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// p50 is the median of an unsorted sample.
func p50(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return percentile(s, 0.5)
}

// tailPermille are the tail cuts the harness may report, in
// thousandths (integers, so that 10 % of 100 samples is exactly 10).
var tailPermille = []int{999, 990, 950, 900}

// highestTail is the highest tail percentile that still has at least
// ten samples beyond it, or 0 when not even p90 does (fewer than 100
// samples): a tail read off fewer points is one slow request, not a
// distribution.
func highestTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 1000
		}
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
