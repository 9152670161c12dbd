package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"octopus/internal/core"
	"octopus/internal/obs"
	"octopus/internal/repl"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// Deployment describes one serving process: its shape and what that
// shape needs. Every field mirrors an `octopus serve` flag; the zero
// value with a Base is a static server over Base's system.
type Deployment struct {
	// Server tunes the serving layer every shape shares.
	Server Options

	// Coordinator serves a fan-out over ShardAddrs instead of a local
	// engine (-coordinator, -shard-addrs, -shard-timeout,
	// -probe-interval).
	Coordinator        bool
	ShardAddrs         []string
	CoordinatorOptions CoordinatorOptions

	// Follow is the leader's base URL for a read replica (-follow).
	Follow string
	// Dir is the durability directory (-wal): the live ingester's WAL
	// and checkpoints, or the replica's mirrored checkpoint. State found
	// there wins over Base.
	Dir string

	// Ingest wraps the system in the streaming subsystem (-ingest),
	// folding after RebuildEvents events or RebuildInterval of staleness
	// with Workers rebuild parallelism (-rebuild-events,
	// -rebuild-interval, -workers).
	Ingest          bool
	RebuildEvents   int
	RebuildInterval time.Duration
	Workers         int

	// Base loads or builds the local system (-load, -mmap, or the
	// dataset flags), with the mapping it aliases, if any. Open calls it
	// only for a static or live node whose Dir holds no recovered state.
	Base func() (*core.System, *store.Mapped, error)
}

// Check refuses every illegal combination of the deployment's own
// fields. Open runs it before it calls Base, opens a directory or
// contacts anyone.
func (d Deployment) Check() error {
	switch {
	case d.Coordinator && len(d.ShardAddrs) == 0:
		return errors.New("serve -coordinator requires -shard-addrs=URL,URL,...")
	case d.Coordinator && (d.Ingest || d.Dir != "" || d.Follow != ""):
		return errors.New("serve -coordinator has no local corpus; drop -ingest/-wal/-follow/-load")
	case d.Follow != "" && d.Ingest:
		return errors.New("serve -follow is read-only; -ingest belongs on the leader")
	case d.Follow != "" && d.Dir == "":
		return errors.New("serve -follow requires -wal DIR for the replica's local state")
	case d.Dir != "" && !d.Ingest && d.Follow == "":
		return errors.New("serve -wal requires -ingest")
	}
	return nil
}

// Node is an opened deployment: the Server to mount, and what it must
// release once its HTTP listeners have drained.
type Node struct {
	Server *Server
	// Mode names the shape: static, live, replica or coordinator.
	Mode string

	stop   func() error  // the live ingester's final fold, or the follower's stop
	mapped *store.Mapped // the snapshot mapping the served system aliases
}

// Close releases the node in dependency order: the server's background
// loops, then the source (the live ingester drains, folds and
// checkpoints once more; the follower stops), then the snapshot mapping.
// Call it after the HTTP server has drained, so no in-flight request
// touches unmapped memory (folded generations retain the mapping on
// their own). It returns the source's error.
func (n *Node) Close() (err error) {
	n.Server.Close()
	if n.stop != nil {
		err = n.stop()
	}
	if n.mapped != nil {
		n.mapped.Close()
	}
	return err
}

// Open puts a deployment together: a coordinator probes its shards
// once; a replica bootstraps from its leader, retrying until ctx ends;
// otherwise the node serves the checkpoint Dir recovered, else Base's
// system, wrapped live under Ingest (which replays and folds a recovered
// WAL tail before Open returns). On failure Open releases what it
// opened.
func Open(ctx context.Context, d Deployment) (*Node, error) {
	if err := d.Check(); err != nil {
		return nil, err
	}
	logger := d.Server.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	switch {
	case d.Coordinator:
		srv, err := NewCoordinator(d.ShardAddrs, d.Server, d.CoordinatorOptions)
		if err != nil {
			return nil, err
		}
		return &Node{Server: srv, Mode: "coordinator"}, nil
	case d.Follow != "":
		logger.Info("bootstrapping replica", slog.String("leader", d.Follow), slog.String("dir", d.Dir))
		f, err := repl.Start(ctx, repl.Config{Leader: d.Follow, Dir: d.Dir, Logger: logger})
		if err != nil {
			return nil, err
		}
		return &Node{Server: NewWith(f, d.Server), Mode: "replica", stop: func() error {
			logger.Info("stopping replication", slog.Uint64("version", f.Version()))
			return f.Close()
		}}, nil
	}

	var dir *store.Dir
	var recovered *store.RecoverResult
	var err error
	if d.Dir != "" {
		if dir, recovered, err = store.Open(d.Dir); err != nil {
			return nil, err
		}
	}
	n := &Node{Mode: "static"}
	var sys *core.System
	if recovered != nil {
		sys = recovered.Sys
	} else if sys, n.mapped, err = d.Base(); err != nil {
		if dir != nil {
			dir.Close()
		}
		return nil, err
	}
	if !d.Ingest {
		n.Server = newLocal(sys, d.Server, n.mapped)
		return n, nil
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{
		RebuildEvents:   d.RebuildEvents,
		RebuildInterval: d.RebuildInterval,
		Workers:         d.Workers,
		IncrementalFold: true,
		Store:           dir, // NewLiveSystem closes it, also on failure
		Logger:          logger,
	})
	if err != nil {
		if n.mapped != nil {
			n.mapped.Close()
		}
		return nil, err
	}
	if recovered != nil {
		st := ls.Stats()
		fmt.Fprintf(os.Stderr, "recovered from %s: snapshot v%d + %d WAL events (%d nodes, %d edges)\n",
			d.Dir, recovered.SnapshotVersion, recovered.Tail, st.Nodes, st.Edges)
	}
	n.Server, n.Mode = newLocal(ls, d.Server, n.mapped), "live"
	n.stop = func() error {
		if err := ls.Close(); err != nil {
			return fmt.Errorf("closing ingester: %w", err)
		}
		if dir != nil {
			logger.Info("final checkpoint",
				slog.Uint64("version", dir.LastCheckpointVersion()), slog.String("dir", dir.Path()))
		}
		return nil
	}
	return n, nil
}
