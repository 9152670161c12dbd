package core

import "time"

// BuildTimings records where construction time went, stage by stage —
// the numbers behind the fold-pipeline metrics in /metrics and the
// bench harness's BENCH_*.json context. For a full Build the stages are
// EM learning (Model), the two index builds (OTIM, Tags) and the
// derived structures (Derived). Fold shares the models and indexes, so
// it pays only Derived and sets Incremental; Assemble (the snapshot
// load path) likewise only pays Derived.
type BuildTimings struct {
	// Model is the EM learning stage (≈0 when ground truth was adopted).
	Model time.Duration
	// OTIM is the keyword-IM index build.
	OTIM time.Duration
	// Tags is the influencer index build.
	Tags time.Duration
	// Derived is stage 3: keyword pools and suggester. (The graph's name
	// table builds on its first lookup, outside this timing.)
	Derived time.Duration
	// Total is wall-clock for the whole construction.
	Total time.Duration
	// Incremental reports whether the system came from Fold (indexes
	// shared with its predecessor) rather than Build/Assemble.
	Incremental bool
}

// Timings reports where this system's construction time went.
func (s *System) Timings() BuildTimings { return s.timings }
