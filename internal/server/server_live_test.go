package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/store"
	"octopus/internal/stream"
)

// liveBase builds the 200-author world the live test servers serve.
func liveBase(t *testing.T) *core.System {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 200, Topics: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// liveServer opens a live node without a store over a fresh liveBase;
// folds happen only when a test forces them.
func liveServer(t *testing.T) (*Server, *stream.LiveSystem, *core.System) {
	t.Helper()
	sys := liveBase(t)
	n := openNode(t, Deployment{Ingest: true, RebuildEvents: 1 << 20, Base: baseOf(sys)})
	return n.Server, n.Server.live, sys
}

func postJSON(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func TestIngestEndpoints(t *testing.T) {
	s, ls, sys := liveServer(t)
	n := sys.Graph().NumNodes()
	baseEdges := sys.Graph().NumEdges()

	// Edges: one between existing, not-yet-connected nodes, and one
	// growing the graph.
	freshDst := -1
	for v := 1; v < n; v++ {
		if _, ok := sys.Graph().FindEdge(0, int32(v)); !ok {
			freshDst = v
			break
		}
	}
	if freshDst < 0 {
		t.Fatal("node 0 connected to everyone")
	}
	rec, body := postJSON(t, s, "/api/ingest/edges", fmt.Sprintf(
		`{"edges":[{"src":0,"dst":%d},{"src":1,"dst":%d,"dstName":"Live Newcomer"}]}`, freshDst, n))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("edges status = %d body = %v", rec.Code, body)
	}
	if int(body["enqueued"].(float64)) != 2 {
		t.Fatalf("enqueued = %v", body["enqueued"])
	}

	// Items + actions.
	rec, body = postJSON(t, s, "/api/ingest/actions",
		`{"items":[{"id":900001,"keywords":["live","mining"]}],
		  "actions":[{"user":0,"item":900001,"time":10},{"user":2,"item":900001,"time":11}]}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("actions status = %d body = %v", rec.Code, body)
	}

	// Malformed / empty bodies are client errors.
	rec, _ = postJSON(t, s, "/api/ingest/edges", `{"edges":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty edges status = %d", rec.Code)
	}
	rec, _ = postJSON(t, s, "/api/ingest/actions", `{not json`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json status = %d", rec.Code)
	}

	// Stats endpoint reflects the applied events once flushed.
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, body = get(t, s, "/api/ingest/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	if body["applied"].(float64) != 5 || body["pending"].(float64) != 5 {
		t.Fatalf("stats body = %v", body)
	}
	if body["version"].(float64) != 1 {
		t.Fatalf("version = %v", body["version"])
	}

	// Fold and observe the new snapshot through the read API.
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	rec, body = get(t, s, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := int(body["Edges"].(float64)); got != baseEdges+2 {
		t.Fatalf("Edges after fold = %d, want %d", got, baseEdges+2)
	}
	if got := int(body["Nodes"].(float64)); got != n+1 {
		t.Fatalf("Nodes after fold = %d, want %d", got, n+1)
	}
	// The grown node resolves by its streamed name.
	rec, _ = get(t, s, "/api/paths?user=Live+Newcomer")
	if rec.Code != http.StatusOK {
		t.Fatalf("paths for new node status = %d", rec.Code)
	}
}

// TestIngestStatsExposeCheckpoints: a WAL-backed live server surfaces
// the durability counters through /api/ingest/stats.
func TestIngestStatsExposeCheckpoints(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 150, Topics: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{RebuildEvents: 1 << 20, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ls.Close() })
	s := NewWith(ls, Options{})

	rec, body := postJSON(t, s, "/api/ingest/edges", fmt.Sprintf(
		`{"edges":[{"src":0,"dst":%d,"dstName":"Durable Newcomer"}]}`, sys.Graph().NumNodes()))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("edges status = %d body = %v", rec.Code, body)
	}
	if err := ls.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, body = get(t, s, "/api/ingest/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	if body["durable"] != true {
		t.Fatalf("durable = %v", body["durable"])
	}
	if body["checkpoints"].(float64) != 1 || body["lastCheckpointVersion"].(float64) != 1 {
		t.Fatalf("checkpoint stats = %v", body)
	}
	if body["walRecords"].(float64) != 1 || body["walSyncs"].(float64) == 0 {
		t.Fatalf("WAL stats = %v", body)
	}
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, s, "/api/ingest/stats")
	if body["checkpoints"].(float64) != 2 || body["lastCheckpointVersion"].(float64) != 2 {
		t.Fatalf("post-fold checkpoint stats = %v", body)
	}
	if body["walRecords"].(float64) != 0 {
		t.Fatalf("WAL not rotated after checkpoint: %v", body)
	}
}

// TestHealthDegradedOnWALFailure: once a WAL append fails, ingestion
// keeps acknowledging, so /api/health must stop reporting ready and
// name the failure, and /api/ingest/stats must carry it.
func TestHealthDegradedOnWALFailure(t *testing.T) {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 150, Topics: 4, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := stream.NewLiveSystem(sys, stream.Config{RebuildEvents: 1 << 20, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Kill) // the store is closed below; Close would re-close it
	s := NewWith(ls, Options{})
	if _, body := get(t, s, "/api/health"); body["state"] != "ready" {
		t.Fatalf("health before the failure = %v", body)
	}

	// Sever the WAL out from under the system (simulates a dead disk).
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, body := postJSON(t, s, "/api/ingest/edges", fmt.Sprintf(
		`{"edges":[{"src":0,"dst":%d}]}`, sys.Graph().NumNodes()))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("edges status = %d body = %v", rec.Code, body)
	}
	if err := ls.Flush(); err == nil {
		t.Fatal("Flush returned nil with a dead WAL")
	}

	rec, body = get(t, s, "/api/health")
	if rec.Code != http.StatusOK || body["state"] != "degraded" {
		t.Fatalf("health after the WAL failure = %d %v", rec.Code, body)
	}
	found := false
	for _, r := range body["reasons"].([]any) {
		found = found || strings.HasPrefix(r.(string), "wal_failed: ")
	}
	if !found {
		t.Fatalf("no wal_failed reason in %v", body["reasons"])
	}
	if _, body = get(t, s, "/api/ingest/stats"); body["walFailed"] == "" {
		t.Fatalf("ingest stats do not carry the WAL failure: %v", body)
	}
}
