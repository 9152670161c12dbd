package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/graph"
	"octopus/internal/obs"
)

// WAL file layout:
//
//	"OCTWAL01"
//	record := frameLen u32 | body | crc32c(body) u32
//	body   := kind u8 | payload
//
// frameLen covers the body only. Appends are buffered and made durable
// by Sync (group commit: the live ingester appends every batch it
// drains, then fsyncs once). Replay stops at the first torn or corrupt
// record — the tail a crash may leave behind — and OpenWAL truncates
// that tail so later appends stay readable.
const walMagic = "OCTWAL01"

// walHeaderLen is the byte offset of the first record frame in a WAL
// file — the length of the magic header.
const walHeaderLen = int64(len(walMagic))

// maxWALRecordLen bounds a declared record body length (64 MiB).
const maxWALRecordLen = 64 << 20

// Record kinds. They mirror the streaming ingest events.
const (
	// RecEdge is a new follow/citation edge with the per-topic prior
	// probabilities assigned at apply time.
	RecEdge uint8 = 1
	// RecItem is a new content item with its keywords.
	RecItem uint8 = 2
	// RecAction is a user acting on an item.
	RecAction uint8 = 3
	// RecFence marks a checkpoint boundary: every record before the
	// fence is folded into the snapshot whose version the fence names.
	// Dir.Checkpoint appends (and fsyncs) the fence before writing the
	// snapshot, so recovery can cut the log at the fence matching the
	// snapshot on disk instead of replaying a stale tail, and replicas
	// tailing the log fold exactly where the leader did.
	RecFence uint8 = 4
)

// Record is one durably logged ingest event. Kind selects which field
// group is meaningful.
type Record struct {
	Kind uint8

	// RecEdge fields.
	Src, Dst         graph.NodeID
	SrcName, DstName string
	Probs            []float64 // per-topic prior assigned at apply time

	// RecItem fields.
	ItemID   int32
	Keywords []string

	// RecAction fields.
	User graph.NodeID
	Item int32
	Time int64

	// RecFence field: the checkpoint version this fence belongs to.
	Version uint64
}

func encodeRecord(buf *bytes.Buffer, rec *Record) error {
	bw := binio.NewWriter(buf)
	bw.U8(rec.Kind)
	switch rec.Kind {
	case RecEdge:
		bw.I32(rec.Src)
		bw.I32(rec.Dst)
		bw.Str(rec.SrcName)
		bw.Str(rec.DstName)
		bw.F64s(rec.Probs)
	case RecItem:
		bw.I32(rec.ItemID)
		bw.Strs(rec.Keywords)
	case RecAction:
		bw.I32(rec.User)
		bw.I32(rec.Item)
		bw.I64(rec.Time)
	case RecFence:
		bw.U64(rec.Version)
	default:
		return fmt.Errorf("store: unknown WAL record kind %d", rec.Kind)
	}
	return bw.Flush()
}

func decodeRecord(body []byte) (*Record, error) {
	br := arena.NewReader(body)
	rec := &Record{Kind: br.U8()}
	switch rec.Kind {
	case RecEdge:
		rec.Src = br.I32()
		rec.Dst = br.I32()
		rec.SrcName = br.Str()
		rec.DstName = br.Str()
		rec.Probs = br.F64s()
	case RecItem:
		rec.ItemID = br.I32()
		rec.Keywords = br.Strs()
	case RecAction:
		rec.User = br.I32()
		rec.Item = br.I32()
		rec.Time = br.I64()
	case RecFence:
		rec.Version = br.U64()
	default:
		return nil, fmt.Errorf("store: unknown WAL record kind %d", rec.Kind)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("store: decode WAL record: %w", err)
	}
	return rec, nil
}

// WAL is an append-only write-ahead log. Append/Sync/Rotate/Close must
// be called from a single goroutine (the live apply loop); the counter
// accessors are safe from any goroutine.
type WAL struct {
	f *os.File
	// broken is set when a failed append could not be rolled back to the
	// last record boundary; further appends would land after a torn
	// frame and be unrecoverable, so they are refused instead.
	broken bool

	records atomic.Uint64
	syncs   atomic.Uint64
	size    atomic.Int64
	// Cumulative across rotations (observability only).
	totalRecords atomic.Uint64
	totalBytes   atomic.Int64
	// Latency instruments (observability only; safe to read from any
	// goroutine while the apply loop writes).
	appendLat obs.Histogram
	syncLat   obs.Histogram
}

// OpenWAL opens (creating if absent) the log at path for appending. An
// existing file is scanned and any torn tail left by a crash is
// truncated away so new records remain replayable.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	w := &WAL{f: f}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: init WAL: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: init WAL: %w", err)
		}
		w.size.Store(walHeaderLen)
		return w, nil
	}
	// Scan the existing log to find the valid prefix.
	n, end, err := scanWAL(f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if end < st.Size() {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	w.records.Store(uint64(n))
	w.size.Store(end)
	return w, nil
}

// Records returns the number of records in the log (existing plus
// appended this session).
func (w *WAL) Records() uint64 { return w.records.Load() }

// Syncs returns the number of fsync batches issued.
func (w *WAL) Syncs() uint64 { return w.syncs.Load() }

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 { return w.size.Load() }

// TotalBytes returns the bytes appended across all rotations.
func (w *WAL) TotalBytes() int64 { return w.totalBytes.Load() }

// AppendLatency returns the append-call latency histogram.
func (w *WAL) AppendLatency() *obs.Histogram { return &w.appendLat }

// SyncLatency returns the fsync (group commit) latency histogram.
func (w *WAL) SyncLatency() *obs.Histogram { return &w.syncLat }

// Append writes recs to the log buffer. Call Sync to make them durable.
// A failed write is rolled back to the last record boundary so the next
// append does not land after a torn frame (which would make every later
// record unrecoverable — replay stops at the first corrupt frame).
func (w *WAL) Append(recs []Record) error {
	if w.broken {
		return fmt.Errorf("store: WAL broken by an earlier failed append")
	}
	defer w.appendLat.ObserveSince(time.Now())
	var frame bytes.Buffer
	var body bytes.Buffer
	for i := range recs {
		body.Reset()
		if err := encodeRecord(&body, &recs[i]); err != nil {
			return err
		}
		if body.Len() > maxWALRecordLen {
			return fmt.Errorf("store: WAL record of %d bytes exceeds limit", body.Len())
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
		frame.Write(hdr[:])
		frame.Write(body.Bytes())
		binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(body.Bytes(), crcTable))
		frame.Write(hdr[:])
	}
	if _, err := w.f.Write(frame.Bytes()); err != nil {
		good := w.size.Load()
		if terr := w.f.Truncate(good); terr != nil {
			w.broken = true
		} else if _, serr := w.f.Seek(good, io.SeekStart); serr != nil {
			w.broken = true
		}
		return fmt.Errorf("store: WAL append: %w", err)
	}
	w.records.Add(uint64(len(recs)))
	w.size.Add(int64(frame.Len()))
	w.totalBytes.Add(int64(frame.Len()))
	return nil
}

// Sync fsyncs appended records (group commit).
func (w *WAL) Sync() error {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: WAL sync: %w", err)
	}
	w.syncLat.ObserveSince(start)
	w.syncs.Add(1)
	return nil
}

// Rotate truncates the log back to an empty header — called right
// after a checkpoint snapshot lands, so the log only carries events
// newer than the snapshot. (If a crash lands between snapshot and
// rotation, the stale records are cut at the checkpoint fence during
// recovery — see Dir.Checkpoint.)
func (w *WAL) Rotate() error {
	if err := w.f.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("store: WAL rotate: %w", err)
	}
	if _, err := w.f.Seek(walHeaderLen, io.SeekStart); err != nil {
		return fmt.Errorf("store: WAL rotate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: WAL rotate: %w", err)
	}
	w.records.Store(0)
	w.size.Store(walHeaderLen)
	return nil
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: WAL close: %w", err)
	}
	return w.f.Close()
}

// scanWAL reads records from the start of f, calling fn (if non-nil)
// for each valid record. It returns the record count and the byte
// offset where the valid prefix ends (the start of any torn tail).
func scanWAL(f io.ReadSeeker, fn func(*Record) error) (int, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("store: scan WAL: %w", err)
	}
	br := newCountingReader(bufio.NewReader(f))
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, 0, fmt.Errorf("store: WAL too short for header: %w", err)
	}
	if string(magic) != walMagic {
		return 0, 0, fmt.Errorf("store: bad WAL magic %q", magic)
	}
	count := 0
	end := int64(len(walMagic))
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break // clean EOF or torn length prefix
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxWALRecordLen {
			break // corrupt length — treat as torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			break
		}
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			break
		}
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sum[:]) {
			break
		}
		rec, err := decodeRecord(body)
		if err != nil {
			break
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return count, end, err
			}
		}
		count++
		end = br.n
	}
	return count, end, nil
}

// countingReader tracks how many bytes have been consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReplayWAL reads the log at path and calls fn for every valid record
// in append order. A missing file replays zero records; a torn or
// corrupt tail ends the replay silently (that is the prefix a crash
// guarantees). The return is the number of records replayed.
func ReplayWAL(path string, fn func(*Record) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: replay WAL: %w", err)
	}
	defer f.Close()
	n, _, err := scanWAL(f, fn)
	return n, err
}
