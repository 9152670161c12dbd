package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"octopus/internal/store"
	"octopus/internal/stream"
)

// ReplicatePath is the leader's replication endpoint.
const ReplicatePath = "/api/replicate"

// HeaderSnapshotVersion carries the version of a shipped snapshot, so a
// resuming download can tell its partial bytes belong to a superseded
// checkpoint.
const HeaderSnapshotVersion = "X-Octopus-Snapshot-Version"

// maxStatusWait caps one status long-poll, whatever wait_ms asks for.
const maxStatusWait = 30 * time.Second

// Status is the leader's replication handshake: the checkpoint a
// replica should serve and what it costs to ship.
type Status struct {
	SnapshotVersion uint64 `json:"snapshotVersion"`
	ServingVersion  uint64 `json:"servingVersion"`
	SnapshotBytes   int64  `json:"snapshotBytes"`
}

// SourceStats are the leader-side replication counters.
type SourceStats struct {
	StatusRequests   uint64 `json:"statusRequests"`
	SnapshotRequests uint64 `json:"snapshotRequests"`
}

// Source serves a durable LiveSystem's checkpoints to followers. It is
// an http.Handler for ReplicatePath and is safe for concurrent use:
// reads go through the store's atomics plus per-request file handles,
// so serving followers never blocks the ingest pipeline.
type Source struct {
	live *stream.LiveSystem
	dir  *store.Dir

	statusRequests   atomic.Uint64
	snapshotRequests atomic.Uint64
}

// NewSource wraps a durable LiveSystem. It fails when the system has no
// store: without checkpoints there is nothing to replicate.
func NewSource(live *stream.LiveSystem) (*Source, error) {
	if live == nil || live.Store() == nil {
		return nil, errors.New("repl: source requires a durable (store-backed) live system")
	}
	return &Source{live: live, dir: live.Store()}, nil
}

// Status reports the leader's current replication handshake.
func (s *Source) Status() Status {
	st := Status{
		SnapshotVersion: s.dir.LastCheckpointVersion(),
		ServingVersion:  s.live.Version(),
	}
	if fi, err := os.Stat(s.dir.SnapshotPath()); err == nil {
		st.SnapshotBytes = fi.Size()
	}
	return st
}

// WaitStatus is the long-poll form of Status: it returns as soon as the
// checkpoint version differs from after, or once wait has elapsed (at
// most maxStatusWait), whichever comes first.
func (s *Source) WaitStatus(ctx context.Context, after uint64, wait time.Duration) Status {
	if wait > maxStatusWait {
		wait = maxStatusWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		landed := s.dir.CheckpointLanded()
		st := s.Status()
		if st.SnapshotVersion != after {
			return st
		}
		select {
		case <-landed:
		case <-timer.C:
			return s.Status()
		case <-ctx.Done():
			return st
		}
	}
}

// Stats reports leader-side replication counters.
func (s *Source) Stats() SourceStats {
	return SourceStats{
		StatusRequests:   s.statusRequests.Load(),
		SnapshotRequests: s.snapshotRequests.Load(),
	}
}

// ServeHTTP implements the /api/replicate endpoint.
func (s *Source) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeJSONError(w, http.StatusMethodNotAllowed, "replicate is read-only: use GET")
		return
	}
	switch what := r.URL.Query().Get("what"); what {
	case "", "status":
		s.serveStatus(w, r)
	case "snapshot":
		s.serveSnapshot(w, r)
	default:
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown what=%q (want status or snapshot)", what))
	}
}

// serveStatus answers the handshake. With wait_ms it long-polls: the
// request is held until the checkpoint version differs from after
// (default 0) or the wait runs out.
func (s *Source) serveStatus(w http.ResponseWriter, r *http.Request) {
	s.statusRequests.Add(1)
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad after")
			return
		}
		after = n
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeJSONError(w, http.StatusBadRequest, "bad wait_ms")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.WaitStatus(r.Context(), after, wait))
}

// serveSnapshot streams the checkpoint snapshot with Range support, so
// an interrupted download resumes. The open file handle pins one
// consistent snapshot even if a checkpoint renames a fresh one into
// place mid-transfer; the version header is advisory (the follower
// verifies the downloaded file itself) and lets a resuming client
// detect that its partial bytes belong to a superseded snapshot.
func (s *Source) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	s.snapshotRequests.Add(1)
	path := s.dir.SnapshotPath()
	version, err := store.PeekVersion(path)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, "no snapshot yet")
		return
	}
	f, err := os.Open(path)
	if err != nil {
		writeJSONError(w, http.StatusNotFound, "no snapshot yet")
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set(HeaderSnapshotVersion, strconv.FormatUint(version, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "snapshot.oct", fi.ModTime(), f)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
