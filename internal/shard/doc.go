// Package shard is the partition layer of the scatter-gather serving
// tier: it splits one corpus (CSR graph + action log) into N per-shard
// corpora, builds a self-contained core.System for each, and uses the
// internal/store snapshot codec as the shard exchange format — every
// shard bootstraps from an ordinary (mmap-able) snapshot file, so the
// whole single-process serving stack applies unchanged to one shard.
//
// # Partition semantics
//
// Every shard keeps the GLOBAL node-id space: shard graphs have all n
// node slots and all display names, so node ids, name resolution and
// name tables agree fleet-wide without a translation table. What
// is partitioned is ownership:
//
//   - each NODE has exactly one owner shard (the Strategy's assignment);
//   - each EDGE belongs to the shard owning its source node;
//   - each ACTION belongs to the shard owning its acting user;
//   - an item's episode follows its actions, so an item read by users on
//     several shards is (intentionally) present on each of them, while
//     an item with no actions at all is assigned by id modulo N.
//
// The topic model and the per-edge propagation model are NOT
// re-learned per shard: the full-corpus models are adopted (the tic
// model remapped onto the shard's edge subset, exactly — shard edges
// keep their global endpoints), so γ inference and topic vocabulary
// are identical on every shard and topic-dependent answers compose.
//
// # Partial-results contract
//
// The coordinator (internal/server) sends a user read (suggest,
// keywords, forward paths) to the one shard that holds the user — the
// owner, which lists it at /api/owners — and fans every other query
// out to every live shard and merges. When one or more shards are
// down, time out, or answer 429/5xx while another shard answers 200,
// the coordinator still answers with what the remaining shards
// returned, and marks the response as partial in a machine-readable
// way:
//
//   - the X-Octopus-Shards-Missing response header lists the missing
//     shard indexes (comma-separated);
//   - object-shaped payloads carry a "shards_missing" field with the
//     same list (omitted when complete);
//   - GET /api/health reports state "degraded" with one
//     "shards_missing: ..." reason per shard that is down.
//
// A shard's keyword-IM answer lists each seed with the cumulative
// spread after it over the edges that shard owns. The coordinator sums
// each seed's marginal gain across shards, ranks by the summed gain and
// renders cumulative spreads again, so a fleet answer has the
// single-process shape; seeds whose influence crosses shard boundaries
// are under-counted, which makes the fleet answer approximate.
//
// Partial responses are never cached, so a recovered shard is
// reflected by the very next uncached query. Spread estimates merged
// from a subset of shards are lower bounds on the full-fleet answer.
// A user read whose owner is missing is asked of the remaining shards,
// which hold no data for the user and answer 200 with a fallback over
// empty state (keywords ranked at spread 0, vocabulary suggestions, a
// root-only path graph), marked partial like any other answer.
// Callers that cannot tolerate partial answers must check the header
// or field and retry.
package shard
