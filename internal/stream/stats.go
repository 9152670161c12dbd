package stream

import (
	"time"

	"octopus/internal/store"
)

// Stats is a point-in-time view of the ingestion pipeline: one
// consistent cut, so Applied − Pending is exactly what the serving
// snapshot has folded. Counters are cumulative over the LiveSystem's
// lifetime; events rejected with ErrBufferFull count as dropped,
// malformed or out-of-order events as invalid, and re-sent edges/items
// as duplicates.
type Stats struct {
	Version         uint64    `json:"version"`
	Nodes           int       `json:"nodes"`
	Edges           int       `json:"edges"`
	Episodes        int       `json:"episodes"`
	Accepted        uint64    `json:"accepted"`
	Dropped         uint64    `json:"droppedBufferFull"`
	Invalid         uint64    `json:"invalid"`
	Duplicates      uint64    `json:"duplicates"`
	Applied         uint64    `json:"applied"`
	Pending         int       `json:"pending"`
	Buffered        int64     `json:"buffered"`
	Snapshots       uint64    `json:"snapshots"`
	FoldFailures    uint64    `json:"foldFailures"`
	LastSwapMillis  float64   `json:"lastSwapMillis"`
	TotalSwapMillis float64   `json:"totalSwapMillis"`
	LastSwapAt      time.Time `json:"lastSwapAt,omitzero"`
	// With Config.IncrementalFold, IncrementalFolds counts the swaps
	// that reused the indexes (graph-unchanged deltas) and FoldFallbacks
	// the ones that rebuilt (the delta touched the graph).
	IncrementalFolds uint64 `json:"incrementalFolds"`
	FoldFallbacks    uint64 `json:"foldFallbacks"`
	// Per-stage durations of the last fold's construction (model
	// carry-over, index builds, derived structures) — where the
	// swap latency went.
	LastFoldModelMillis   float64 `json:"lastFoldModelMillis"`
	LastFoldOTIMMillis    float64 `json:"lastFoldOtimMillis"`
	LastFoldTagsMillis    float64 `json:"lastFoldTagsMillis"`
	LastFoldDerivedMillis float64 `json:"lastFoldDerivedMillis"`
	// StalenessMillis is the age of the oldest event applied to the
	// overlay but not yet folded into a serving snapshot (0 when none
	// are pending).
	StalenessMillis float64 `json:"stalenessMillis"`

	// Durability counters (zero-valued unless Config.Store is set).
	Durable               bool   `json:"durable"`
	WALRecords            uint64 `json:"walRecords"`
	WALSyncs              uint64 `json:"walSyncs"`
	WALBytes              int64  `json:"walBytes"`
	WALBytesLogged        int64  `json:"walBytesLogged"`
	WALErrors             uint64 `json:"walErrors"`
	Checkpoints           uint64 `json:"checkpoints"`
	LastCheckpointVersion uint64 `json:"lastCheckpointVersion,omitempty"`
	// WALFailed is the sticky WAL failure (empty while every applied
	// event is on disk): set when an append or fsync fails, cleared by
	// the next successful checkpoint.
	WALFailed string `json:"walFailed"`
}

// Staleness returns the age of the oldest event applied to the live
// overlay but not yet visible in a snapshot, or 0 when the overlay is
// drained. It is the cheap accessor behind the SLO ingest-staleness
// objective: health probes and the diagnostics watchdog call it on
// every evaluation, so it takes only the read lock and skips the full
// Stats assembly.
func (ls *LiveSystem) Staleness() time.Duration {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return ls.st.staleness(time.Now())
}

// Stats reports pipeline counters and current-snapshot dimensions. The
// snapshot, the state's counters and the fold counters are read under
// one read lock, the lock every apply and swap writes them under. The
// last fold's figures come from the serving snapshot itself (its swap
// latency, build time and stage timings), and read zero until a fold
// has swapped one in.
func (ls *LiveSystem) Stats() Stats {
	ls.mu.RLock()
	sn := ls.cur.Load()
	st := Stats{
		Version:          sn.Version,
		Invalid:          ls.st.invalid,
		Duplicates:       ls.st.duplicates,
		Applied:          ls.st.applied,
		Pending:          ls.st.ov.events,
		StalenessMillis:  millis(ls.st.staleness(time.Now())),
		Snapshots:        ls.snapshots,
		FoldFailures:     ls.foldFailures,
		TotalSwapMillis:  millis(ls.totalSwap),
		IncrementalFolds: ls.incrementalFolds,
		FoldFallbacks:    ls.fallbacks,
	}
	ls.mu.RUnlock()
	sysStats := sn.Sys.Stats()
	st.Nodes, st.Edges, st.Episodes = sysStats.Nodes, sysStats.Edges, sysStats.Episodes
	st.Accepted = ls.accepted.Load()
	st.Dropped = ls.dropped.Load()
	st.Buffered = ls.buffered.Load()
	if st.Snapshots > 0 {
		tm := sn.Sys.Timings()
		st.LastSwapMillis = millis(sn.SwapLatency)
		st.LastSwapAt = sn.BuiltAt
		st.LastFoldModelMillis = millis(tm.Model)
		st.LastFoldOTIMMillis = millis(tm.OTIM)
		st.LastFoldTagsMillis = millis(tm.Tags)
		st.LastFoldDerivedMillis = millis(tm.Derived)
	}
	if d := ls.cfg.Store; d != nil {
		st.Durable = true
		st.WALRecords = d.WALRecords()
		st.WALSyncs = d.WALSyncs()
		st.WALBytes = d.WALSize()
		st.WALBytesLogged = d.WALBytesLogged()
		st.WALErrors = ls.walErrors.Load()
		if err := ls.WALFailure(); err != nil {
			st.WALFailed = err.Error()
		}
		st.Checkpoints = d.Checkpoints()
		st.LastCheckpointVersion = d.LastCheckpointVersion()
	}
	return st
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// Store returns the durability directory backing this system (nil when
// not durable) — the handle observability collectors read WAL and
// checkpoint instruments from.
func (ls *LiveSystem) Store() *store.Dir { return ls.cfg.Store }

// WALFailure returns the sticky WAL failure: non-nil from a failed
// append or fsync until a successful checkpoint closes the gap (always
// nil without a Store).
func (ls *LiveSystem) WALFailure() error {
	if p := ls.walFailure.Load(); p != nil {
		return *p
	}
	return nil
}
