package main

import (
	"fmt"
	"os"

	"octopus/internal/bench"
)

// E14 — persistence: the ingest-throughput cost of write-ahead logging
// with per-drain fsync and per-swap checkpoints, against the in-memory
// pipeline of E13. Snapshot load against a full EM rebuild is the
// benchmark's store.load_ms / store.map_ms against em.learn_s +
// otim.build_s.
func runE14(e *env) error {
	h, err := buildStreamHoldout(e)
	if err != nil {
		return err
	}
	rebuildEvents := e.sizes.streamBatch * 8
	tab := bench.NewTable(
		fmt.Sprintf("E14: WAL overhead on ingest replay (%d-author stream, rebuild@%d, batch=%d)",
			e.sizes.streamAuthors, rebuildEvents, e.sizes.streamBatch),
		"mode", "events", "events/s", "fsyncs", "checkpoints", "wal bytes", "overhead")

	mem, err := replay(h, rebuildEvents, e.sizes.streamBatch, "")
	if err != nil {
		return err
	}
	memEPS := float64(mem.events) / mem.wall.Seconds()
	tab.Row("memory", mem.events, fmt.Sprintf("%.0f", memEPS), "-", "-", "-", "-")

	walDir, err := os.MkdirTemp("", "octopus-e14-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, err := replay(h, rebuildEvents, e.sizes.streamBatch, walDir)
	if err != nil {
		return err
	}
	walEPS := float64(wal.events) / wal.wall.Seconds()
	overhead := (memEPS - walEPS) / memEPS * 100
	tab.Row("WAL+fsync", wal.events, fmt.Sprintf("%.0f", walEPS),
		wal.walSyncs, wal.checkpoints,
		fmt.Sprintf("%.0fKiB", float64(wal.walBytes)/(1<<10)),
		fmt.Sprintf("%.1f%%", overhead))
	tab.Render(e.out)
	fmt.Fprintln(e.out, "note: fsyncs are group commits (one per drained batch group); each snapshot")
	fmt.Fprintln(e.out, "      swap also checkpoints (full snapshot write + WAL rotation) off the hot path.")
	return nil
}
