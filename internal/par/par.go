// Package par provides the shared bounded worker-pool helpers behind
// the offline build pipeline (em, otim, tags): bounded fan-out with
// deterministic merges, so a parallel build is bit-identical to a
// serial one for a fixed seed.
//
// Two primitives cover every build stage:
//
//   - Each — embarrassingly parallel loops whose iterations write to
//     disjoint locations (per-node MIOA spreads, per-node aggregate
//     rows, per-sample seed sets, per-poll reverse trees). Iteration
//     order is irrelevant, so work is handed out dynamically.
//   - OrderedMerge — fan-out with a floating-point reduction, where the
//     merge order decides the result (EM accumulator chunks). Items are
//     processed concurrently but merged strictly in item order, so the
//     reduction performs the exact same additions in the exact same
//     order for every worker count.
//
// Both treat a Workers knob uniformly: 0 means one worker per
// GOMAXPROCS slot, 1 forces serial execution, n > 1 bounds the fan-out
// at n goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers knob: values ≤ 0 resolve to
// GOMAXPROCS(0) (one worker per schedulable core), anything else is
// returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Each calls fn(w, i) for every i in [0, n), fanning out across
// Resolve(workers) goroutines and blocking until all calls return. The
// worker index w (0 ≤ w < Resolve(workers)) identifies the goroutine,
// so callers can hand each worker its own scratch state (a mia.Calc, an
// otim.Engine, …). Work is dealt dynamically in contiguous chunks;
// iterations must write only to locations disjoint per i — under that
// contract the outcome is identical for every worker count.
func Each(workers, n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Chunked dynamic scheduling: cheap enough for fine-grained items,
	// balanced enough for skewed ones (a hub node's Dijkstra can cost
	// 100× a leaf's).
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// OrderedMerge runs process(w, i) for every i in [0, n) across
// Resolve(workers) goroutines and hands each result to merge(i, v)
// strictly in increasing i — never concurrently — regardless of
// completion order. Because the serial path performs the identical
// sequence process(0), merge(0), process(1), merge(1), …, a
// non-associative (floating-point) reduction in merge yields the same
// bits for every worker count.
//
// At most 2×workers results are in flight at once: workers stall
// claiming item i until i < merged+2×workers, so memory stays bounded
// even when an early item straggles. merge runs under the pool's lock
// (on whichever worker completed the gap item), so it should be cheap
// relative to process.
func OrderedMerge[T any](workers, n int, process func(w, i int) T, merge func(i int, v T)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			merge(i, process(0, i))
		}
		return
	}
	window := 2 * workers
	var mu sync.Mutex
	claimable := sync.NewCond(&mu)
	vals := make([]T, window)
	ready := make([]bool, window)
	next, merged := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				mu.Lock()
				for next < n && next-merged >= window {
					claimable.Wait()
				}
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				v := process(w, i)

				mu.Lock()
				vals[i%window], ready[i%window] = v, true
				// Drain the contiguous ready prefix in order. Only the
				// worker that filled the gap at `merged` enters this loop,
				// so merge is serial.
				for merged < n && ready[merged%window] {
					mv := vals[merged%window]
					ready[merged%window] = false
					var zero T
					vals[merged%window] = zero
					merge(merged, mv)
					merged++
				}
				claimable.Broadcast()
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}
