package main

import (
	"strings"
	"testing"
)

// TestCheckServe pins which serve command lines are refused before
// anything is built, fetched or bound, and that the ones the CI smokes
// and the benchmark launch pass.
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
		{"-shard 0/2 -ingest", "static read-only shard"},
		{"-wal d", "-wal requires -ingest"},
		{"-load m.oct -mmap-warmup", "requires -mmap"},
		{"-mmap", "requires -load"},
		{"-shard 2/2", "need 0 <= k < N"},
		{"-shard x", "want k/N"},
		{"-shard 0/0", "need 0 <= k < N"},
		{"-shard 0/2 -strategy metis", "unknown strategy"},

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
		// A one-step shard.
		{"-shard 1/2 -strategy community", ""},
	} {
		opt, err := parseFlags("serve", strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err = checkServe(opt)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: legal command line refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
