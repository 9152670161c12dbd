package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"octopus/internal/core"
	"octopus/internal/store"
)

// openNode opens d and closes the node when the test ends.
func openNode(t testing.TB, d Deployment) *Node {
	t.Helper()
	n, err := Open(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// baseOf is a Deployment.Base over an already built system.
func baseOf(sys *core.System) func() (*core.System, *store.Mapped, error) {
	return func() (*core.System, *store.Mapped, error) { return sys, nil, nil }
}

// TestOpenRefusesBeforeBase: the deployments Open refuses (the serve
// command lines cmd/octopus's TestCheckServe lists as refused by
// Deployment.Check) fail before Base runs or any directory is created.
func TestOpenRefusesBeforeBase(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Deployment
		want string
	}{
		{"follow+ingest", Deployment{Follow: "http://leader:8080", Ingest: true, Dir: "wal"}, "read-only"},
		{"follow without wal", Deployment{Follow: "http://leader:8080"}, "requires -wal"},
		{"coordinator without shards", Deployment{Coordinator: true}, "requires -shard-addrs"},
		{"coordinator+ingest", Deployment{Coordinator: true, ShardAddrs: []string{"http://h0:8081"}, Ingest: true, Dir: "wal"}, "no local corpus"},
		{"wal without ingest", Deployment{Dir: "wal"}, "-wal requires -ingest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			if d.Dir != "" {
				d.Dir = filepath.Join(t.TempDir(), d.Dir)
			}
			d.Base = func() (*core.System, *store.Mapped, error) {
				t.Error("Base called for a refused deployment")
				return nil, nil, errors.New("unreachable")
			}
			if _, err := Open(context.Background(), d); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want an error containing %q", err, tc.want)
			}
			if d.Dir != "" {
				if _, err := os.Stat(d.Dir); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("refused deployment created %s (stat: %v)", d.Dir, err)
				}
			}
		})
	}
}

// TestOpenRecoveredStateWinsOverBase: a durable live node re-opened on
// its directory serves what it checkpointed and never builds a base.
func TestOpenRecoveredStateWinsOverBase(t *testing.T) {
	sys := liveBase(t)
	dir := filepath.Join(t.TempDir(), "wal")
	d := Deployment{Ingest: true, Dir: dir, RebuildEvents: 1 << 20, Base: baseOf(sys)}
	n, err := Open(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	nodes := sys.Graph().NumNodes()
	if rec, _ := postJSON(t, n.Server, "/api/ingest/edges", fmt.Sprintf(
		`{"edges":[{"src":0,"dst":%d,"dstName":"Recovered Newcomer"},{"src":1,"dst":%d}]}`, nodes, nodes+1)); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest edges = %d", rec.Code)
	}
	if rec, _ := postJSON(t, n.Server, "/api/ingest/actions",
		`{"items":[{"id":910001,"keywords":["recovered","mining"]}],"actions":[{"user":0,"item":910001,"time":3}]}`); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest actions = %d", rec.Code)
	}
	if err := n.Server.live.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	version := n.Server.live.Version()
	paths := []string{
		"/api/im?q=" + url.QueryEscape(vocabKeyword(sys)) + "&k=5",
		"/api/paths?user=" + url.QueryEscape("Recovered Newcomer") + "&reverse=1",
		"/api/paths?user=" + url.QueryEscape(hubName(sys)),
	}
	want := make([][]byte, len(paths))
	for i, p := range paths {
		rec := do(t, n.Server, http.MethodGet, p, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", p, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.Bytes()
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	d.Base = func() (*core.System, *store.Mapped, error) {
		t.Error("Base called although the directory holds a checkpoint")
		return nil, nil, errors.New("unreachable")
	}
	re := openNode(t, d)
	if re.Mode != "live" {
		t.Fatalf("re-opened mode %q, want live", re.Mode)
	}
	if got := re.Server.live.Version(); got != version {
		t.Fatalf("recovered version %d, want %d", got, version)
	}
	for i, p := range paths {
		rec := do(t, re.Server, http.MethodGet, p, "")
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
			t.Fatalf("GET %s after recovery = %d %s\nwant %s", p, rec.Code, rec.Body.String(), want[i])
		}
	}
}
