// health.go is the server's SLO surface: GET /api/health reports
// ready | degraded | failing from multi-window burn rates over the
// serving objectives (availability, p99 latency, staleness), degraded
// by replication lag, missing shards or a leader's WAL failure, and a
// diagnostics watchdog captures a rate-limited bundle (goroutine
// + heap profiles, recent traces, a registry dump) into Options.DiagDir
// whenever a burn threshold is crossed. GET /api/debug/diag lists the
// captured bundles.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"octopus/internal/obs"
	"octopus/internal/repl"
)

// watchdogPoll is how often the background watchdog re-evaluates the
// SLO report when a diagnostics directory is configured.
const watchdogPoll = 15 * time.Second

// healthResponse is the GET /api/health payload. Reasons is the
// machine-readable list of every objective currently burning.
type healthResponse struct {
	State           string                `json:"state"`
	Generation      uint64                `json:"generation"`
	StalenessMillis float64               `json:"stalenessMillis"`
	CacheHitRatio   float64               `json:"cacheHitRatio"`
	ShedRatio       float64               `json:"shedRatio"`
	BurnThreshold   float64               `json:"burnThreshold"`
	Reasons         []string              `json:"reasons"`
	Objectives      []obs.ObjectiveReport `json:"objectives"`
	Replication     *repl.Stats           `json:"replication,omitempty"`
	Shards          []shardHealth         `json:"shards,omitempty"`
}

// staleness returns the serving staleness feeding the SLO staleness
// objective: the ingest staleness of a live server, the replication lag
// of a replica — a follower that cannot reach its leader is serving
// answers that age exactly like a leader whose overlay outruns its
// folds — and 0 on a static server, where snapshots cannot age.
func (s *Server) staleness() time.Duration {
	switch {
	case s.live != nil:
		return s.live.Staleness()
	case s.follower != nil:
		return s.follower.Lag()
	}
	return 0
}

// handleHealth reports the SLO state. ready and degraded answer 200 so
// load balancers keep routing while one window burns; failing answers
// 503. A non-ready state also triggers the (rate-limited) diagnostics
// watchdog, so the first probe that sees a burn captures the evidence.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	gen := s.generation()
	stale := s.staleness()
	rep := s.slo.Report(stale)
	m := s.metrics.Report()
	resp := healthResponse{
		State:           rep.State,
		Generation:      gen,
		StalenessMillis: float64(stale) / 1e6,
		CacheHitRatio:   m.HitRatio,
		ShedRatio:       m.ShedRatio,
		BurnThreshold:   rep.BurnThreshold,
		Reasons:         burnReasons(rep),
		Objectives:      rep.Objectives,
	}
	// A replica that has not caught up with its leader yet is serving an
	// arbitrarily old snapshot: never report it ready, whatever the burn
	// windows say (they need traffic history a fresh replica lacks).
	if s.follower != nil {
		fst := s.follower.Stats()
		resp.Replication = &fst
		if !fst.Ready {
			if resp.State == obs.StateReady {
				resp.State = obs.StateDegraded
			}
			resp.Reasons = append(resp.Reasons, fmt.Sprintf(
				"replication_lag: replica not caught up with %s (%.0fms behind)", fst.Leader, fst.LagMillis))
		}
	}
	// A failed WAL append or fsync leaves applied events off disk while
	// ingestion keeps accepting: degraded until a checkpoint closes the
	// gap. Only a leader has a WAL.
	if s.live != nil {
		if err := s.live.WALFailure(); err != nil {
			if resp.State == obs.StateReady {
				resp.State = obs.StateDegraded
			}
			resp.Reasons = append(resp.Reasons, "wal_failed: "+err.Error())
		}
	}
	// A coordinator folds its fleet view in: a missing shard means
	// partial answers, which is a degraded state whatever the local burn
	// windows say, with one machine-readable reason per missing shard.
	if s.coord != nil {
		resp.Shards = s.coord.health()
		for _, sh := range resp.Shards {
			if !sh.Up {
				if resp.State == obs.StateReady {
					resp.State = obs.StateDegraded
				}
				resp.Reasons = append(resp.Reasons, fmt.Sprintf(
					"shards_missing: shard %d (%s) unreachable", sh.Index, sh.Addr))
			}
		}
	}
	if resp.State != obs.StateReady {
		s.captureDiag("slo " + resp.State + ": " + strings.Join(resp.Reasons, "; "))
	}
	status := http.StatusOK
	if resp.State == obs.StateFailing {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// burnReasons lists every non-ready objective's reason. Always
// non-nil, so the JSON field is [] rather than null when healthy.
func burnReasons(rep obs.SLOReport) []string {
	reasons := []string{}
	for _, o := range rep.Objectives {
		if o.State != obs.StateReady && o.Reason != "" {
			reasons = append(reasons, o.Reason)
		}
	}
	return reasons
}

// captureDiag asks the watchdog for a bundle, attaching the trace ring
// and a registry dump to the runtime profiles it captures itself. The
// watchdog rate-limits internally, so callers fire on every trigger.
func (s *Server) captureDiag(reason string) {
	if s.watchdog == nil {
		return
	}
	extras := make(map[string][]byte, 2)
	if s.tracer != nil {
		if tj, err := json.MarshalIndent(s.tracer.Recent(0), "", "  "); err == nil {
			extras["traces.json"] = tj
		}
	}
	var buf bytes.Buffer
	if err := s.registry.WritePrometheus(&buf); err == nil {
		extras["metrics.prom"] = buf.Bytes()
	}
	s.watchdog.Capture(reason, extras)
}

// watchLoop is the background half of the watchdog: even with no
// health probes hitting the server, a sustained burn still produces a
// bundle. Runs only when a diagnostics directory is configured; stops
// at Close.
func (s *Server) watchLoop() {
	t := time.NewTicker(watchdogPoll)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			rep := s.slo.Report(s.staleness())
			if rep.State != obs.StateReady {
				s.captureDiag("slo " + rep.State + ": " + strings.Join(burnReasons(rep), "; "))
			}
		}
	}
}

// Close stops the server's background goroutines (the watchdog loop).
// Safe to call multiple times and on servers that never started any.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.done) })
}

type diagResponse struct {
	Bundles []obs.DiagBundle `json:"bundles"`
}

// handleDiag lists captured diagnostics bundles, newest first. An
// empty list (no watchdog configured, or nothing captured yet) is a
// normal 200.
func (s *Server) handleDiag(w http.ResponseWriter, r *http.Request) {
	resp := diagResponse{Bundles: []obs.DiagBundle{}}
	if s.watchdog != nil {
		resp.Bundles = s.watchdog.List()
	}
	writeJSON(w, http.StatusOK, resp)
}
