// Package repl implements leader→follower replication for the live
// OCTOPUS system by checkpoint mirroring: the leader builds every index
// once and checkpoints it; a fleet of read replicas maps those
// checkpoints and serves the paper's query scenarios from them without
// re-running EM, folds or index builds.
//
// # Protocol
//
// A leader exposes one endpoint, GET /api/replicate, with two forms:
//
//	?what=status    → JSON Status: the latest checkpoint version, the
//	                  serving version and the snapshot size.
//	                  &after=V&wait_ms=W long-polls: the leader answers
//	                  as soon as its checkpoint version differs from V,
//	                  or after W milliseconds.
//	?what=snapshot  → the latest checkpoint snapshot file, served with
//	                  Range support so an interrupted download resumes
//	                  where it left off instead of starting over.
//
// The rule the protocol rests on is "same version ⇒ same bytes": the
// leader writes one checkpoint per fold (store.Dir.Checkpoint), and a
// checkpoint version names exactly one snapshot file. A follower that
// maps the file of version V answers every query exactly like the
// leader serving V — the mapped ≡ heap identity of internal/store — so
// no fold settings, WAL positions or restart signals cross the wire. A
// leader that crash-restarts recovers its WAL tail into a new
// checkpoint version, which followers mirror like any other.
//
// # Follower lifecycle
//
// Start asks the leader for its status, reuses the checkpoint in its
// local directory when that already holds the leader's version (a
// restart against an unchanged leader fetches nothing), downloads it
// otherwise, maps it in place with store.Map (zero-copy: the replica
// serves straight from the page cache) and publishes it as a
// stream.Snapshot. The poll loop then long-polls status after the
// served version and repeats the download-map-swap for every new
// checkpoint. Readers pin the served generation with Acquire — the pin
// protocol of stream.Snapshot — so a swap never waits for them and an
// old mapping is unmapped after its last reader releases. The
// follower's extra staleness is its replication lag (Follower.Lag),
// which the serving layer feeds into the health SLOs.
package repl
