// Package stream turns the static OCTOPUS system into a live one: it
// absorbs a continuous stream of new actions, items and follow edges
// while queries keep being served, closing the gap between the paper's
// precomputed indexes and an *online* deployment (the
// preprocessing-vs-freshness trade-off of real-time topic-aware IM).
//
// # Architecture
//
// Three cooperating pieces, all owned by a LiveSystem:
//
//   - Ingester: callers hand batches of events (IngestEdges,
//     IngestActions) to a bounded in-memory buffer. A single background
//     goroutine drains the buffer and applies events to the overlay, so
//     ingestion never contends with query traffic. TryIngest* variants
//     reject with ErrBufferFull instead of blocking, giving HTTP callers
//     natural backpressure.
//
//   - Delta overlay: the base core.System is immutable (CSR graph,
//     model slices, indexes), so applied-but-not-yet-folded events live
//     in a small mutable overlay keyed by endpoint pairs. New edges are
//     assigned per-topic activation probabilities when they are applied
//     (the weighted Jaccard of the endpoints' topic profiles, scaled to
//     the source's typical edge strength), and the WAL records those
//     probabilities, so recovery and the fold reproduce them exactly.
//
//   - Snapshot manager: when the overlay accumulates Config.RebuildEvents
//     events — or has been pending longer than Config.RebuildInterval —
//     the apply goroutine folds it into a fresh core.System: the graph is
//     re-CSR'd with the new edges, the TIC model is remapped onto the new
//     edge ids (tic.Remap) with overlay priors filling the new edges, the
//     action log is merged with the new items/actions
//     (actionlog.Merge, cost proportional to the delta). One path per
//     kind of delta: with Config.IncrementalFold, a delta that leaves
//     the graph unchanged (items and actions only) reuses the graph,
//     the model and both indexes (core.Fold — query-for-query identical
//     to a rebuild at the unchanged seed) and pays only the log-derived
//     structures; a delta that touches the graph rebuilds the OTIM and
//     tags indexes (core.Build) with the tuning of the base system at a
//     per-generation perturbed seed. No index is maintained
//     incrementally. The finished snapshot is installed with a single
//     atomic.Pointer store.
//
// # Concurrency and the staleness model
//
// Queries are lock-free: LiveSystem.System() is one atomic load, and the
// returned *core.System is immutable, so an in-flight query keeps using
// the snapshot it started on even while a newer one is swapped in.
// Snapshot versions increase monotonically; a reader never observes a
// torn or partially built system, and swapping never blocks readers.
//
// Freshness is therefore bounded, not instant:
//
//   - An event is *applied* (validated, deduplicated, counted in Stats
//     as pending) as soon as the apply loop processes its batch
//     (microseconds after ingestion, buffer permitting).
//   - It becomes *visible to the analysis services* (DiscoverInfluencers,
//     SuggestKeywords, InfluencePaths) at the next snapshot fold, i.e.
//     after at most RebuildEvents further events or RebuildInterval of
//     wall-clock time, plus one rebuild duration. The interval bound is
//     exact: the fold deadline is armed from the oldest pending event's
//     arrival, so a quiet overlay folds at RebuildInterval — not at the
//     up-to-1.5× a coarser periodic check would allow. (Only a failing
//     fold stretches it: retries are then paced one interval apart.)
//   - Keyword vocabulary is the one dimension that stays frozen across
//     folds: the topic model is carried over, so keywords unseen at
//     build time remain "unknown" to gamma inference. The vocabulary
//     grows only through a fresh `octopus build` over the merged log.
//
// Ingestion ordering matters only across dependent events: an edge that
// introduces a brand-new node must be ingested before actions by that
// node, and an item before actions referencing it. Violations are
// counted in Stats.Invalid and dropped, never applied partially.
//
// If a fold fails, the previous snapshot keeps serving, the failure is
// recorded in Stats (and returned by ForceSnapshot), and the delta stays
// pending, to be retried at the next fold.
//
// # Durability
//
// With Config.Store set (a store.Dir), the pipeline is write-ahead
// logged: the apply loop validates each drained batch group, applies it
// to the overlay, appends the accepted events (edges with their
// assigned priors) to the WAL and fsyncs once per group — before any
// marker in the group is answered, so Flush doubles as a durability
// barrier. Ingest calls themselves return once the batch is queued, so
// they acknowledge acceptance, not durability. If a WAL write or fsync
// failed, Flush and ForceSnapshot return that error and Stats.WALFailed
// carries it (sticky, until a successful checkpoint persists the full
// state and closes the gap) while ingestion itself keeps running; the
// server reports it as a wal_failed health reason. Every snapshot swap
// checkpoints (snapshot write, then WAL rotation), Close drains, folds
// and checkpoints one final time and returns what of that failed, and
// Kill stops dead to mimic a crash.
//
// Recovery is the same code as ingestion. store.Open decodes the latest
// checkpoint and keeps the WAL records logged after it; NewLiveSystem,
// given that checkpoint and the store, applies those records through
// the live handlers (edges keep their logged priors, nothing is logged
// twice) and folds them before it starts — the ordinary fold, with the
// ordinary seed and IncrementalFold policy, checkpointing the next
// version and rotating the WAL. A restarted leader therefore serves and
// persists byte for byte what an uninterrupted run would at that
// version; see the store package for the fence that makes every crash
// point safe.
//
// # Follower lag
//
// A read replica (internal/repl) extends the staleness model by one
// hop. It runs no LiveSystem: it mirrors the leader's checkpoints, and
// the leader checkpoints at every fold. An event therefore becomes
// visible on a follower after (a) the leader's fold latency above,
// (b) the checkpoint write, (c) the status long-poll answer, which the
// checkpoint wakes at once, and (d) the follower's download + map of
// the snapshot — milliseconds per MiB on a local network; the follower
// never repeats the leader's rebuild. Overlay peeks never reach a
// follower: it only ever serves checkpoints. Same
// version ⇒ same bytes: a follower serving version V maps the file the
// leader wrote for V, so the two answer query-for-query identically,
// and a follower's extra staleness is only the replication lag
// (surfaced in repl.Stats and the follower's /api/health via the SLO
// staleness objective — a follower that falls behind degrades exactly
// like a leader whose overlay outruns its folds).
package stream
