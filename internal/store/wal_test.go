package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: RecEdge, Src: 1, Dst: 9, SrcName: "a", DstName: "new user", Probs: []float64{0.1, 0.2}},
		{Kind: RecItem, ItemID: 77, Keywords: []string{"mining", "graphs"}},
		{Kind: RecAction, User: 4, Item: 77, Time: 123456789},
	}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if err := w.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 3 || w.Syncs() != 1 {
		t.Fatalf("counters: records=%d syncs=%d", w.Records(), w.Syncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := ReplayWAL(path, func(r *Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records:\n got %+v\nwant %+v", n, got, want)
	}
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: chop bytes off the last record.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	n, err := ReplayWAL(path, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records from torn log, want 2", n)
	}
	// Reopening truncates the torn tail so new appends stay readable.
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Records() != 2 {
		t.Fatalf("reopened records = %d, want 2", w.Records())
	}
	if err := w.Append([]Record{{Kind: RecAction, User: 1, Item: 77, Time: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err = ReplayWAL(path, func(*Record) error { return nil }); err != nil || n != 3 {
		t.Fatalf("after reopen+append: n=%d err=%v, want 3", n, err)
	}
}

func TestWALRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Fatalf("records after rotate = %d", w.Records())
	}
	// Post-rotation appends replay alone.
	if err := w.Append([]Record{{Kind: RecItem, ItemID: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, err := ReplayWAL(path, func(r *Record) error { got = append(got, *r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || got[0].Kind != RecItem || got[0].ItemID != 1 {
		t.Fatalf("replay after rotate: n=%d got=%+v", n, got)
	}
}

func TestWALMissingFileReplaysNothing(t *testing.T) {
	n, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.log"), func(*Record) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestWALRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("NOTAWAL0 junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); err == nil {
		t.Fatal("bad magic accepted by OpenWAL")
	}
	if _, err := ReplayWAL(path, nil); err == nil {
		t.Fatal("bad magic accepted by ReplayWAL")
	}
}

// TestDecodeRecordAllocs pins the per-record cost of recovery and of
// the follower tail: decoding an action allocates the Record and
// nothing else (no reader, no buffer).
func TestDecodeRecordAllocs(t *testing.T) {
	var body bytes.Buffer
	if err := encodeRecord(&body, &Record{Kind: RecAction, User: 3, Item: 9, Time: 77}); err != nil {
		t.Fatal(err)
	}
	b := body.Bytes()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("decodeRecord(RecAction) = %v allocs/op, want 1", allocs)
	}
}
