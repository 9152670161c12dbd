package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"octopus/internal/mia"
	"octopus/internal/otim"
)

// freeList is a bounded stack of idle per-query scratch values. Unlike
// a sync.Pool, the garbage collector never empties it, so a query after
// a GC reuses warm scratch instead of building megabytes anew; unlike
// an unbounded stack, it keeps at most GOMAXPROCS idle values — the
// most that can run at once — and drops the surplus a burst returns.
type freeList[T any] struct {
	mu    sync.Mutex
	idle  []T
	fresh func() T // builds a value when none is idle
}

func (l *freeList[T]) get() T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		v := l.idle[n-1]
		var zero T
		l.idle[n-1] = zero
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	return l.fresh()
}

func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	if len(l.idle) < runtime.GOMAXPROCS(0) {
		l.idle = append(l.idle, v)
	}
	l.mu.Unlock()
}

// scratchCreated counts the query scratch values this process has
// built, by kind; see ScratchCreated.
var scratchCreated struct{ otim, mia atomic.Uint64 }

// ScratchCreated returns how many OTIM engines and MIA calculators the
// process's systems have built for queries. With warm free lists it
// stays at most GOMAXPROCS per kind and system, however many queries
// run.
func ScratchCreated() (engines, calcs uint64) {
	return scratchCreated.otim.Load(), scratchCreated.mia.Load()
}

// ensureScratch arms the per-query scratch lists (index-bound only — no
// log access, so a deferred system's first IM or path query pays
// nothing beyond the scratch it uses).
func (s *System) ensureScratch() {
	s.scratchOnce.Do(func() {
		oix, g := s.otimIdx, s.g
		s.engines.fresh = func() *otim.Engine {
			scratchCreated.otim.Add(1)
			return otim.NewEngine(oix)
		}
		s.calcs.fresh = func() *mia.Calc {
			scratchCreated.mia.Add(1)
			return mia.NewCalc(g)
		}
	})
}
