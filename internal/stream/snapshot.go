package stream

import (
	"sync/atomic"
	"time"

	"octopus/internal/core"
)

// Snapshot is one immutable serving generation. Version increases by
// exactly 1 per fold; a fresh base system is version 1, and a durable
// system resumes from its store's last checkpoint generation so
// versions stay monotone across restarts.
type Snapshot struct {
	Sys     *core.System
	Version uint64
	BuiltAt time.Time
	// SwapLatency is the rebuild duration paid off the hot path for this
	// snapshot (0 for the base snapshot).
	SwapLatency time.Duration

	// Mapped-backing lifecycle. A snapshot whose system aliases a mapped
	// snapshot file holds one reference on that backing (taken at
	// publish); readers pin the snapshot around query evaluation, and
	// the reference is released — allowing the eventual munmap — only
	// after the snapshot is retired (swapped out or shut down) AND the
	// last pin is gone. pins is the live pin count, with -1 as the
	// released sentinel so late pins fail instead of resurrecting a
	// released backing.
	pins    atomic.Int64
	retired atomic.Bool
	backing core.Backing
	// release is unpin bound once at publish, so handing a reader its
	// release callback allocates nothing per pin.
	release func()
}

// NewSnapshot publishes sys as a serving generation, taking a reference
// on its mapped backing (if any) for the snapshot's lifetime. Besides
// the LiveSystem's own folds, a read replica publishes each mapped
// checkpoint through it (internal/repl); swap is the time the
// generation took to produce.
func NewSnapshot(sys *core.System, version uint64, swap time.Duration) *Snapshot {
	s := &Snapshot{Sys: sys, Version: version, BuiltAt: time.Now(), SwapLatency: swap}
	s.release = s.unpin
	if b := sys.Backing(); b != nil {
		b.Retain()
		s.backing = b
	}
	return s
}

// tryPin takes a read pin; it fails only when the snapshot's backing
// reference is already released (retired with no remaining pins).
func (s *Snapshot) tryPin() bool {
	for {
		n := s.pins.Load()
		if n < 0 {
			return false
		}
		if s.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unpin drops a read pin, releasing the backing reference if this was
// the last pin on a retired snapshot.
func (s *Snapshot) unpin() {
	if s.pins.Add(-1) == 0 && s.retired.Load() {
		s.tryRelease()
	}
}

// Retire marks the snapshot as no longer current; the backing reference
// is released now if unpinned, else by the last unpin. Call it once,
// after a successor has replaced it wherever Pin loads from.
func (s *Snapshot) Retire() {
	s.retired.Store(true)
	s.tryRelease()
}

// tryRelease moves pins 0 → released exactly once and drops the backing
// reference. Snapshots without a backing skip the transition — there is
// nothing to release, and leaving pins untouched keeps tryPin cheap.
func (s *Snapshot) tryRelease() {
	if s.backing != nil && s.pins.CompareAndSwap(0, -1) {
		s.backing.Release()
	}
}

// Pin pins the generation current returns — the one pin protocol behind
// LiveSystem.Acquire and a read replica's Acquire. current must load the
// serving generation from wherever its publisher swaps it; a snapshot
// retired between the load and the pin is skipped for its successor.
//
// The release callback drops the pin and must be called exactly once:
// it is the snapshot's own, shared by all its pins, so a pin costs no
// allocation (a second call would drop another reader's pin).
func Pin(current func() *Snapshot) (*Snapshot, func()) {
	for {
		s := current()
		if s.tryPin() {
			return s, s.release
		}
		if current() == s {
			// Released already (post-shutdown): nothing left to pin.
			return s, noRelease
		}
		// A swap replaced the generation mid-race; pin the new one.
	}
}

// noRelease is the release of a pin that took nothing.
func noRelease() {}
