package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"octopus/internal/actionlog"
	"octopus/internal/repl"
	"octopus/internal/stream"
)

// replicaPair builds a durable leader server behind an httptest
// listener and a follower mirroring its checkpoints, fronted by a
// replica Server. The leader has checkpointed once so a snapshot exists
// to ship.
func replicaPair(t *testing.T) (leader *Server, ls *stream.LiveSystem, replica *Server, f *repl.Follower) {
	t.Helper()
	leader, ls = durableLiveServer(t, Options{})
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader)
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	f, err := repl.Start(ctx, repl.Config{
		Leader:       ts.URL,
		Dir:          t.TempDir(),
		PollWait:     200 * time.Millisecond,
		RetryBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return leader, ls, NewWith(f, Options{}), f
}

func waitReady(t *testing.T, f *repl.Follower) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !f.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", f.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicateRouteMounting(t *testing.T) {
	// A durable leader serves the replication handshake...
	leader, _ := durableLiveServer(t, Options{})
	rec, body := get(t, leader, "/api/replicate?what=status")
	if rec.Code != http.StatusOK {
		t.Fatalf("leader /api/replicate = %d body = %v", rec.Code, body)
	}
	if _, ok := body["snapshotVersion"]; !ok {
		t.Fatalf("status payload missing snapshotVersion: %v", body)
	}
	// ...in two forms only: the WAL never leaves the leader.
	if rec, _ := get(t, leader, "/api/replicate?what=wal&epoch=1&offset=8"); rec.Code != http.StatusBadRequest {
		t.Fatalf("leader what=wal = %d, want 400", rec.Code)
	}
	// A static server, having nothing durable to ship, 404s.
	static, _ := testServer(t)
	rec, _ = get(t, static, "/api/replicate?what=status")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("static /api/replicate = %d, want 404", rec.Code)
	}
}

func TestReplicaServesQueriesReadOnly(t *testing.T) {
	_, _, replica, f := replicaPair(t)
	waitReady(t, f)

	rec, body := get(t, replica, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/status = %d body = %v", rec.Code, body)
	}
	rec, body = get(t, replica, "/api/im?q=data+mining&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/im = %d body = %v", rec.Code, body)
	}

	// Writes belong to the leader: 403, not the static server's 404.
	rec, body = postJSON(t, replica, "/api/ingest/edges", `{"edges":[{"src":0,"dst":1}]}`)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("replica ingest = %d body = %v, want 403", rec.Code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "read-only replica") {
		t.Fatalf("replica ingest error = %q", body["error"])
	}

	// The stats endpoint reports the served version, its mapping and
	// the follower's counters.
	rec, body = get(t, replica, "/api/ingest/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/ingest/stats = %d", rec.Code)
	}
	if v, _ := body["version"].(float64); uint64(v) != f.Version() {
		t.Fatalf("replica stats version = %v, want %d", body["version"], f.Version())
	}
	if _, ok := body["store"].(map[string]any); !ok {
		t.Fatalf("ingest/stats missing store section: %v", body)
	}
	rp, ok := body["repl"].(map[string]any)
	if !ok {
		t.Fatalf("ingest/stats missing repl section: %v", body)
	}
	if rp["ready"] != true || rp["snapshotFetches"] != 1.0 {
		t.Fatalf("repl section = %v, want ready after 1 fetch", rp)
	}
}

// TestReplicaByteIdenticalToLeader: at every generation both sides
// serve, the replica's /api/im, /api/suggest and /api/paths bodies are
// the leader's, byte for byte.
func TestReplicaByteIdenticalToLeader(t *testing.T) {
	leader, ls, replica, f := replicaPair(t)
	waitReady(t, f)
	sys := ls.System()
	paths := []string{
		"/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=5",
		"/api/im?q=data+mining&k=3",
		"/api/suggest?user=" + url.QueryEscape(richUser(sys)) + "&k=2",
		"/api/paths?user=" + url.QueryEscape(hubName(sys)) + "&theta=0.005",
	}
	compare := func() {
		t.Helper()
		for _, p := range paths {
			lrec, _ := get(t, leader, p)
			rrec, _ := get(t, replica, p)
			if lrec.Code != http.StatusOK || rrec.Code != http.StatusOK {
				t.Fatalf("%s: leader %d, replica %d", p, lrec.Code, rrec.Code)
			}
			lg, rg := lrec.Header().Get("X-Octopus-Generation"), rrec.Header().Get("X-Octopus-Generation")
			if lg != rg {
				t.Fatalf("%s: leader generation %s, replica %s", p, lg, rg)
			}
			if lrec.Body.String() != rrec.Body.String() {
				t.Fatalf("%s at generation %s differs:\nleader  %s\nreplica %s", p, lg, lrec.Body.String(), rrec.Body.String())
			}
		}
	}
	compare()

	// An edge-bearing fold (rebuild) and an action-only fold (index reuse).
	n := int32(sys.Graph().NumNodes())
	if err := ls.IngestEdges([]stream.EdgeEvent{{Src: 1, Dst: n, DstName: "Replica Probe"}}); err != nil {
		t.Fatal(err)
	}
	for round, item := range []int32{880001, 880002} {
		if err := ls.IngestActions(
			[]actionlog.Item{{ID: item, Keywords: []string{vocabKeyword(sys)}}},
			[]actionlog.Action{{User: 2, Item: item, Time: int64(9000 + round)}},
		); err != nil {
			t.Fatal(err)
		}
		if err := ls.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for f.Version() != ls.Version() || !f.CaughtUp() {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at %d, leader at %d", f.Version(), ls.Version())
			}
			time.Sleep(5 * time.Millisecond)
		}
		compare()
	}
}

func TestReplicaHealthAndMetrics(t *testing.T) {
	leader, _, replica, f := replicaPair(t)
	waitReady(t, f)

	rec, body := get(t, replica, "/api/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/health = %d", rec.Code)
	}
	if body["state"] != "ready" {
		t.Fatalf("replica health state = %v (body %v)", body["state"], body)
	}
	if _, ok := body["replication"].(map[string]any); !ok {
		t.Fatalf("replica health missing replication section: %v", body)
	}

	fams := scrape(t, replica)
	for _, name := range []string{
		"octopus_repl_follower_ready",
		"octopus_repl_follower_caught_up",
		"octopus_repl_follower_lag_seconds",
		"octopus_repl_follower_version",
		"octopus_repl_follower_reconnects_total",
		"octopus_repl_follower_snapshot_fetches_total",
		"octopus_repl_follower_snapshot_bytes_total",
		"octopus_store_mmap",
	} {
		if famByName(fams, name) == nil {
			t.Errorf("replica /metrics missing %s", name)
		}
	}
	// A replica has no ingest pipeline, WAL or fold of its own.
	for _, name := range []string{
		"octopus_ingest_applied_total",
		"octopus_wal_records_total",
		"octopus_repl_follower_folds_total",
		"octopus_repl_follower_epoch",
	} {
		if famByName(fams, name) != nil {
			t.Errorf("replica /metrics still exports %s", name)
		}
	}
	fams = scrape(t, leader)
	for _, name := range []string{
		"octopus_repl_status_requests_total",
		"octopus_repl_snapshot_requests_total",
	} {
		if famByName(fams, name) == nil {
			t.Errorf("leader /metrics missing %s", name)
		}
	}

	// The leader's stats endpoint carries its source counters.
	rec, body = get(t, leader, "/api/ingest/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("leader /api/ingest/stats = %d", rec.Code)
	}
	rp, ok := body["repl"].(map[string]any)
	if !ok {
		t.Fatalf("leader ingest/stats missing repl section: %v", body)
	}
	if v, _ := rp["statusRequests"].(float64); v == 0 {
		t.Fatalf("leader served no status requests: %v", rp)
	}
	if v, _ := rp["snapshotRequests"].(float64); v != 1 {
		t.Fatalf("leader served %v snapshot downloads, want 1", rp["snapshotRequests"])
	}
}

// TestReplicaHealthGatesOnCatchUp pins the follower behind a leader
// that advertises a checkpoint it never ships: bootstrap succeeds (the
// snapshot it does ship maps fine) but the replica can never catch up,
// so health must refuse to report ready and name replication_lag.
func TestReplicaHealthGatesOnCatchUp(t *testing.T) {
	leader, ls := durableLiveServer(t, Options{})
	if err := ls.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("what") == "status" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = fmt.Fprint(w, `{"snapshotVersion":99}`)
			return
		}
		leader.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	f, err := repl.Start(ctx, repl.Config{
		Leader:       ts.URL,
		Dir:          t.TempDir(),
		PollWait:     100 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	replica := NewWith(f, Options{})

	rec, body := get(t, replica, "/api/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/health = %d", rec.Code)
	}
	if body["state"] != "degraded" {
		t.Fatalf("stalled replica health state = %v, want degraded (body %v)", body["state"], body)
	}
	var reasons []string
	b, _ := json.Marshal(body["reasons"])
	_ = json.Unmarshal(b, &reasons)
	found := false
	for _, r := range reasons {
		if strings.HasPrefix(r, "replication_lag:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replication_lag reason in %v", reasons)
	}
	if f.Lag() <= 0 {
		t.Fatal("stalled replica reports no lag")
	}
	// Queries still work against the bootstrapped snapshot meanwhile.
	rec, _ = get(t, replica, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("replica /api/status while degraded = %d", rec.Code)
	}
}
