// Package octopus is an open-source reproduction of OCTOPUS, the online
// topic-aware influence analysis system for social networks (Fan, Qiu,
// Li, Meng, Zhang, Li, Tan, Du — ICDE 2018), together with the research
// engines it is built on: online topic-aware influence maximization
// (Chen et al., PVLDB 2015) and personalized influential keywords
// exploration (Li et al., SIGMOD 2017).
//
// A System is built from a social graph and an action log. It learns a
// topic-aware independent cascade model (per-edge per-topic activation
// probabilities plus a keyword model) with EM, precomputes the online
// indexes, and then answers three analysis services interactively:
//
//   - DiscoverInfluencers: given free-text keywords, find the seed users
//     with maximum topic-aware influence spread (Scenario 1).
//   - SuggestKeywords: given a user, find the keyword set that maximizes
//     the user's influence — their "selling points" (Scenario 2).
//   - InfluencePaths: visualize how a user influences (or is influenced
//     by) the network through maximum influence arborescences
//     (Scenario 3).
//
// Quickstart:
//
//	ds, _ := octopus.GenerateCitation(octopus.CitationConfig{Authors: 5000, Seed: 1})
//	sys, _ := octopus.Build(ds.Graph, ds.Log, octopus.Config{Topics: 8})
//	res, _ := sys.DiscoverInfluencers([]string{"data", "mining"},
//	    octopus.DiscoverOptions{K: 10})
//
// All randomized components take explicit seeds; identical inputs
// produce identical outputs. The package is pure Go with no dependencies
// outside the standard library.
package octopus

import (
	"fmt"
	"os"

	"octopus/internal/actionlog"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/server"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// Core system types.
type (
	// System is a fully built OCTOPUS instance; see core.System.
	System = core.System
	// Config controls system construction.
	Config = core.Config
	// DiscoverOptions tunes keyword-based influential user discovery.
	DiscoverOptions = core.DiscoverOptions
	// DiscoverResult is the answer to a keyword-IM query.
	DiscoverResult = core.DiscoverResult
	// InfluencerResult is one discovered seed user.
	InfluencerResult = core.InfluencerResult
	// PathOptions tunes influential-path exploration.
	PathOptions = core.PathOptions
	// PathGraph is the d3-ready influential-path payload.
	PathGraph = core.PathGraph
	// RadarData is the per-topic profile of a keyword.
	RadarData = core.RadarData
	// TargetedResult is the answer to a targeted influence query.
	TargetedResult = core.TargetedResult
	// Stats summarizes a built system.
	Stats = core.Stats
)

// Graph and data types.
type (
	// Graph is the immutable CSR social graph.
	Graph = graph.Graph
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
	// ActionLog is a set of propagation episodes.
	ActionLog = actionlog.Log
	// Item is a piece of propagated content.
	Item = actionlog.Item
	// Action records a user acting on an item.
	Action = actionlog.Action
	// Tokenizer extracts keywords from free text.
	Tokenizer = actionlog.Tokenizer
)

// Data generation types.
type (
	// Dataset bundles a generated graph, ground-truth models and log.
	Dataset = datagen.Dataset
	// CitationConfig parameterizes the ACMCite-style generator.
	CitationConfig = datagen.CitationConfig
	// SocialConfig parameterizes the QQ-style generator.
	SocialConfig = datagen.SocialConfig
)

// Server is the JSON HTTP API over a ServerSource; see NewServer.
type Server = server.Server

// ServerSource is what a Server answers from; each request pins one
// (system, generation) pair through Acquire. A *System is a static
// source with one generation; a *LiveSystem adds the /api/ingest
// endpoints and, when durable, ships its checkpoints to read replicas;
// a replication follower (internal/repl) serves the leader's
// checkpoints read-only.
type ServerSource = server.Source

// ServerOptions tunes the query-serving layer of a Server: result-cache
// size (generation-tagged, so snapshot swaps invalidate implicitly),
// the in-flight query bound past which requests are shed with 429, and
// the observability knobs (trace ring, slow-query threshold, logger).
type ServerOptions = server.Options

// Streaming ingestion types (live systems).
type (
	// LiveSystem serves immutable snapshots while absorbing a stream of
	// graph/action events; see stream.LiveSystem.
	LiveSystem = stream.LiveSystem
	// StreamConfig tunes ingestion buffering, priors and snapshot folds.
	StreamConfig = stream.Config
	// StreamStats reports the ingestion pipeline counters.
	StreamStats = stream.Stats
	// StreamSnapshot is one immutable serving generation.
	StreamSnapshot = stream.Snapshot
	// EdgeEvent announces a new follow/citation edge to a LiveSystem.
	EdgeEvent = stream.EdgeEvent
)

// Persistence types (snapshots, write-ahead log, crash recovery).
type (
	// StoreDir is an open durability directory: checkpoint snapshot +
	// write-ahead log; see store.Dir.
	StoreDir = store.Dir
	// RecoverResult is what OpenStore found in a directory holding
	// state: the checkpoint and the size of its write-ahead-log tail.
	RecoverResult = store.RecoverResult
	// MappedSystem owns the lifetime of a snapshot served in place via
	// mmap; see store.Mapped.
	MappedSystem = store.Mapped
	// MapStats reports how a mapped snapshot is backed.
	MapStats = store.MapStats
)

// Build constructs a System from a social graph and action log. With
// cfg.GroundTruth set, model learning is skipped; otherwise the
// topic-aware IC parameters and keyword model are learned from the log
// by EM (cfg.Topics required).
func Build(g *Graph, log *ActionLog, cfg Config) (*System, error) {
	return core.Build(g, log, cfg)
}

// NewGraphBuilder returns a builder expecting n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// BuildActionLog assembles an ActionLog from items and raw actions.
func BuildActionLog(numUsers int, items []Item, actions []Action) *ActionLog {
	return actionlog.Build(numUsers, items, actions)
}

// GenerateCitation synthesizes the ACMCite-style academic dataset.
func GenerateCitation(cfg CitationConfig) (*Dataset, error) { return datagen.Citation(cfg) }

// GenerateSocial synthesizes the QQ-style marketing dataset.
func GenerateSocial(cfg SocialConfig) (*Dataset, error) { return datagen.Social(cfg) }

// NewServer wraps a source in the JSON HTTP API. The zero ServerOptions
// are the defaults (result cache on, no in-flight bound). Cached results
// are tagged with the generation each request pins, so every snapshot
// swap of a live source invalidates the cache implicitly.
func NewServer(src ServerSource, opt ServerOptions) *Server { return server.NewWith(src, opt) }

// NewLiveSystem turns a built System into a live one that ingests
// streamed events and periodically swaps in rebuilt snapshots. Callers
// must Close the returned LiveSystem.
func NewLiveSystem(sys *System, cfg StreamConfig) (*LiveSystem, error) {
	return stream.NewLiveSystem(sys, cfg)
}

// SaveSystem writes a complete built system — graph, action log,
// learned models, precomputed online indexes and build config — to
// path as one versioned, checksummed binary snapshot (atomically: temp
// file + rename). LoadSystem then cold-starts without re-running EM or
// index precomputation.
func SaveSystem(path string, sys *System) error {
	return store.Save(path, sys)
}

// LoadSystem reads a snapshot written by SaveSystem (or checkpointed by
// a durable LiveSystem) and assembles the system. Neither model
// learning nor index precomputation runs — the snapshot carries the
// learned models AND the precomputed indexes, so only cheap derived
// structures are rebuilt. Note the consequence: index tuning in the
// snapshot's config does not re-apply on load. To change it, rebuild
// the indexes — without re-running EM — by passing the loaded models
// back to Build:
//
//	sys, _ := octopus.LoadSystem(path)
//	cfg := sys.BuildConfig()
//	cfg.GroundTruth, cfg.GroundTruthWords = sys.Propagation(), sys.Keywords()
//	rebuilt, _ := octopus.Build(sys.Graph(), sys.ActionLog(), cfg)
//
// This is how a live system's fold rebuilds without learning.
func LoadSystem(path string) (*System, error) {
	return store.Load(path)
}

// MapSystem opens a snapshot written by SaveSystem for zero-copy
// serving: the file is memory-mapped read-only and the system's bulk
// arrays (graph CSR, model probability tables, index rows) alias the
// mapped bytes instead of being decoded onto the heap, so cold start
// is bounded by validation, not by array materialization. The action
// log decodes lazily on first use. The returned MappedSystem owns the
// mapping — keep it for the system's lifetime and Close it when done.
// Falls back transparently to the copying path (heap-backed, identical
// query results) on platforms without mmap, on big-endian hosts, or
// when OCTOPUS_MMAP=off.
func MapSystem(path string) (*System, *MappedSystem, error) {
	return store.Map(path, store.MapOptions{})
}

// OpenStore opens (creating if needed) a durability directory for a
// live system: pass the returned StoreDir in StreamConfig.Store to make
// ingestion durable. If the directory holds previous state, the
// RecoverResult carries its checkpoint snapshot; wrap that system with
// NewLiveSystem, which replays the write-ahead-log tail a crash left
// and folds it before serving. The LiveSystem takes ownership of the
// StoreDir and closes it.
func OpenStore(dir string) (*StoreDir, *RecoverResult, error) {
	return store.Open(dir)
}

// SaveGraph writes g to path in the text format.
func SaveGraph(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("octopus: %w", err)
	}
	defer f.Close()
	if err := graph.WriteText(f, g); err != nil {
		return fmt.Errorf("octopus: %w", err)
	}
	return f.Close()
}

// LoadGraph reads a graph from a text-format file.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("octopus: %w", err)
	}
	defer f.Close()
	g, err := graph.ReadText(f)
	if err != nil {
		return nil, fmt.Errorf("octopus: %w", err)
	}
	return g, nil
}

// SaveLog writes an action log to path.
func SaveLog(path string, l *ActionLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("octopus: %w", err)
	}
	defer f.Close()
	if err := actionlog.Write(f, l); err != nil {
		return fmt.Errorf("octopus: %w", err)
	}
	return f.Close()
}

// LoadLog reads an action log from path.
func LoadLog(path string) (*ActionLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("octopus: %w", err)
	}
	defer f.Close()
	l, err := actionlog.Read(f)
	if err != nil {
		return nil, fmt.Errorf("octopus: %w", err)
	}
	return l, nil
}
