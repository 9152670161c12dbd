package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d", got)
	}
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d", got)
	}
}

func TestEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			hits := make([]atomic.Int32, n)
			Each(workers, n, func(w, i int) {
				if w < 0 || w >= Resolve(workers) {
					t.Errorf("worker index %d out of range", w)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, hits[i].Load())
				}
			}
		}
	}
}

func TestEachDisjointWritesDeterministic(t *testing.T) {
	n := 500
	want := make([]int, n)
	Each(1, n, func(_, i int) { want[i] = i * i })
	for _, workers := range []int{2, 4, 8} {
		got := make([]int, n)
		Each(workers, n, func(_, i int) { got[i] = i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// Within every lane, fold sees each item once, in item order, with the
// value process returned for it; each lane is done exactly once, after
// its last fold and after every process call has returned.
func TestOrderedFoldOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 4, 37, 500} {
			for _, lanes := range []int{1, 3} {
				orders := make([][]int, lanes)
				dones := make([]int, lanes)
				var processed atomic.Int32
				OrderedFold(workers, n, lanes, nil,
					func(_, i int, _ int) int {
						if i%7 == 0 { // stagger completion to force reordering
							time.Sleep(time.Millisecond)
						}
						processed.Add(1)
						return i * 3
					},
					func(l, i, v int) {
						if v != i*3 {
							t.Errorf("fold(%d, %d) got value %d", l, i, v)
						}
						if dones[l] != 0 {
							t.Errorf("lane %d folded item %d after done", l, i)
						}
						orders[l] = append(orders[l], i)
					},
					func(l int) {
						if got := processed.Load(); got != int32(n) {
							t.Errorf("lane %d done after %d of %d items processed", l, got, n)
						}
						dones[l]++
					})
				for l, order := range orders {
					if len(order) != n || dones[l] != 1 {
						t.Fatalf("workers=%d n=%d lane %d: folded %d items, done %d times",
							workers, n, l, len(order), dones[l])
					}
					for i, v := range order {
						if v != i {
							t.Fatalf("workers=%d n=%d lane %d: fold order %v", workers, n, l, order)
						}
					}
				}
			}
		}
	}
}

// A non-associative floating-point reduction per lane must come out
// bit-identical for every worker count — the property the EM M-step
// relies on.
func TestOrderedFoldFloatDeterminism(t *testing.T) {
	const n, lanes = 2000, 4
	vals := make([]float64, n)
	x := 0.1
	for i := range vals {
		x = 3.999 * x * (1 - x) // chaotic, fills the mantissa
		vals[i] = x
	}
	reduce := func(workers int) [lanes]float64 {
		var sums, scaled [lanes]float64
		OrderedFold(workers, n, lanes, nil,
			func(_, i int, _ float64) float64 { return vals[i] * vals[(i*7)%n] },
			func(l, _ int, v float64) { sums[l] += v * float64(l+1) },
			func(l int) { scaled[l] = sums[l] / 3 })
		return scaled
	}
	want := reduce(1)
	for _, workers := range []int{2, 3, 4, 8} {
		if got := reduce(workers); got != want {
			t.Fatalf("workers=%d: sums %v != serial %v", workers, got, want)
		}
	}
}

// A straggling first item must not let the window run away, and values
// recycle: through process once every lane has folded them, and across
// calls through the returned spares.
func TestOrderedFoldBoundedWindow(t *testing.T) {
	const workers, lanes = 4, 3
	var inFlight, maxInFlight, fresh atomic.Int32
	run := func(spare []*int) []*int {
		return OrderedFold(workers, 200, lanes, spare,
			func(_, i int, v *int) *int {
				cur := inFlight.Add(1)
				for {
					m := maxInFlight.Load()
					if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
						break
					}
				}
				if i == 0 {
					time.Sleep(20 * time.Millisecond)
				}
				if v == nil {
					fresh.Add(1)
					v = new(int)
				}
				*v = i
				return v
			},
			func(l, i int, v *int) {
				if *v != i {
					t.Errorf("lane %d folded item %d holding %d", l, i, *v)
				}
				if l == lanes-1 {
					inFlight.Add(-1)
				}
			},
			func(int) {})
	}
	spare := run(nil)
	// Live results are capped at 2×workers; the processing slots add at
	// most `workers` more between claim and the last lane's fold.
	if m := maxInFlight.Load(); m > 3*workers {
		t.Fatalf("max in-flight %d exceeds bound %d", m, 3*workers)
	}
	if f := fresh.Load(); f > 2*workers || int(f) != len(spare) {
		t.Fatalf("%d values allocated, %d returned; want equal and at most the window %d",
			f, len(spare), 2*workers)
	}
	before := fresh.Load()
	if again := run(spare); len(again) != len(spare) || fresh.Load() != before {
		t.Fatalf("second call returned %d of %d spares and allocated %d more",
			len(again), len(spare), fresh.Load()-before)
	}
}
