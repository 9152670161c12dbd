// Package par provides the shared bounded worker-pool helpers behind
// the offline build pipeline (em, otim, tags): bounded fan-out with
// deterministic merges, so a parallel build is bit-identical to a
// serial one for a fixed seed.
//
// Two primitives cover every build stage:
//
//   - Each — embarrassingly parallel loops whose iterations write to
//     disjoint locations (per-node MIOA spreads, per-node aggregate
//     rows, per-sample seed sets, per-poll reverse trees, EM's chunk
//     set-up). Iteration order is irrelevant, so work is handed out
//     dynamically.
//   - OrderedFold — fan-out with floating-point reductions, where the
//     order of additions decides the result (EM's chunk partials). Items
//     are processed concurrently and folded into several lanes, each
//     owning disjoint rows (an edge block, the keyword rows): every lane
//     folds strictly in item order while lanes run concurrently, so the
//     reduction performs the exact same additions in the exact same
//     order for every worker count, and no fold waits behind a lock.
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

// OrderedFold runs process(w, i, v) for every i in [0, n) across
// Resolve(workers) goroutines and folds each result into lanes
// independent reductions: fold(l, i, v) runs for every lane l and item
// i, strictly in increasing i within a lane and never concurrently with
// another call for the same lane, while different lanes fold
// concurrently with each other and with process. Once lane l has folded
// every item, done(l) runs, and OrderedFold returns when every done has
// returned. If each lane's fold and done write only the lane's own
// state, a floating-point reduction yields the same bits for every
// worker count: each lane sees the same calls in the same order as the
// serial path process(0), fold(0…lanes−1, 0), process(1), …, done(0…).
//
// At most 2×workers results are alive at once: item i is claimed only
// once every lane has folded item i − 2×workers. Values recycle: process
// receives as v a folded item's value, or one of spare, or the zero T,
// and OrderedFold returns every value it held, spare included, for the
// next call. done runs only after every process call has returned, so
// it may write what process reads. lanes must be positive.
func OrderedFold[T any](workers, n, lanes int, spare []T, process func(w, i int, v T) T,
	fold func(lane, i int, v T), done func(lane int)) []T {
	if lanes <= 0 {
		panic("par: OrderedFold needs at least one lane")
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	take := func() (v T) {
		if k := len(spare); k > 0 {
			v, spare = spare[k-1], spare[:k-1]
		}
		return v
	}
	if workers <= 1 {
		if n > 0 {
			v := take()
			for i := 0; i < n; i++ {
				v = process(0, i, v)
				for l := 0; l < lanes; l++ {
					fold(l, i, v)
				}
			}
			spare = append(spare, v)
		}
		for l := 0; l < lanes; l++ {
			done(l)
		}
		return spare
	}
	window := 2 * workers
	var (
		mu    sync.Mutex
		wake  = sync.NewCond(&mu)
		vals  = make([]T, window)
		holds = make([]int, window) // item a slot holds once processed, else −1
		left  = make([]int, window) // lanes yet to fold the slot's item

		next, freed int // items claimed; items every lane has folded
		folded      = make([]int, lanes)
		busy        = make([]bool, lanes)
		finished    = make([]bool, lanes) // done claimed
		doneClaimed int
	)
	for s := range holds {
		holds[s] = -1
	}
	ready := func(i int) bool { return i < n && holds[i%window] == i }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				// Folding first frees window slots soonest; the lane
				// furthest behind goes first, taking every item ready
				// for it in one go.
				l := -1
				for c := range folded {
					if !busy[c] && ready(folded[c]) && (l < 0 || folded[c] < folded[l]) {
						l = c
					}
				}
				switch {
				case l >= 0:
					lo, hi := folded[l], folded[l]+1
					for ready(hi) {
						hi++
					}
					busy[l] = true
					mu.Unlock()
					for i := lo; i < hi; i++ {
						fold(l, i, vals[i%window])
					}
					mu.Lock()
					busy[l] = false
					folded[l] = hi
					for i := lo; i < hi; i++ {
						// Every lane folds in item order, so items
						// complete in item order too.
						s := i % window
						if left[s]--; left[s] == 0 {
							spare = append(spare, vals[s])
							var zero T
							vals[s], holds[s] = zero, -1
							freed++
						}
					}
				case next < n && next < freed+window:
					i := next
					next++
					v := take()
					mu.Unlock()
					v = process(w, i, v)
					mu.Lock()
					s := i % window
					vals[s], holds[s], left[s] = v, i, lanes
				default:
					d := -1
					for c := range folded {
						if folded[c] == n && !finished[c] {
							d = c
							break
						}
					}
					if d < 0 {
						if doneClaimed == lanes {
							return
						}
						wake.Wait()
						continue
					}
					finished[d] = true
					doneClaimed++
					mu.Unlock()
					done(d)
					mu.Lock()
				}
				wake.Broadcast()
			}
		}(w)
	}
	wg.Wait()
	return spare
}
