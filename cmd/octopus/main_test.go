package main

import (
	"strings"
	"testing"
)

// TestCheckServe pins which serve command lines are refused (by flag
// parsing, checkServe or the Deployment.Check that server.Open runs
// first) before anything is built, fetched or bound, and that the ones
// the CI smokes and the benchmark launch pass.
func TestCheckServe(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // a substring of the error; "" for a legal command line
	}{
		{"-follow http://leader:8080 -ingest -wal d", "read-only"},
		{"-follow http://leader:8080", "requires -wal"},
		{"-follow http://leader:8080 -wal d -load m.oct", "drop -load"},
		{"-coordinator", "requires -shard-addrs"},
		{"-coordinator -shard-addrs=http://h0:8081 -load m.oct", "no local corpus"},
		{"-wal d", "-wal requires -ingest"},
		{"-load m.oct -mmap-warmup", "requires -mmap"},
		{"-mmap", "requires -load"},
		// A shard is made by split and served with -load; serve has no -shard.
		{"-shard 0/2", "flag provided but not defined: -shard"},

		// What the CI smokes launch.
		{"-n 300 -topics 4 -addr 127.0.0.1:18080 -admin-addr 127.0.0.1:18081 -slow-query 1ms -log-format json", ""},
		{"-n 300 -topics 4 -addr 127.0.0.1:18082 -slo-p99 1ns -diag-dir /tmp/diag -diag-interval 1h", ""},
		{"-n 300 -topics 4 -ingest -wal /tmp/leader-wal -rebuild-events 8 -addr 127.0.0.1:18090", ""},
		{"-follow http://127.0.0.1:18090 -wal /tmp/replica-wal -addr 127.0.0.1:18091", ""},
		{"-load /tmp/shards/shard-0-of-2.oct -mmap -mmap-warmup -addr 127.0.0.1:18101", ""},
		{"-load /tmp/model.oct -addr 127.0.0.1:18110", ""},
		{"-coordinator -shard-addrs=http://127.0.0.1:18101,http://127.0.0.1:18102 -addr 127.0.0.1:18100", ""},
		// What the benchmark launches.
		{"-load corpus.oct -mmap -cache-entries -1", ""},
		{"-load corpus.oct -mmap", ""},
		{"-load corpus.oct -ingest -wal wal", ""},
		{"-coordinator -shard-addrs=http://127.0.0.1:1,http://127.0.0.1:2 -cache-entries -1", ""},
	} {
		opt, err := parseFlags("serve", strings.Fields(tc.args))
		if err == nil {
			err = checkServe(opt)
		}
		if err == nil {
			err = deployment(opt, nil).Check()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: legal command line refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestSplitRejectsUnknownStrategy pins that split refuses a strategy it
// does not know before it touches the system.
func TestSplitRejectsUnknownStrategy(t *testing.T) {
	opt, err := parseFlags("split", []string{"-strategy", "metis"})
	if err != nil {
		t.Fatal(err)
	}
	if err := splitFleet(opt, nil); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("split -strategy metis: error %v, want one containing %q", err, "unknown strategy")
	}
}
