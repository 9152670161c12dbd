// Package store is the persistence and crash-recovery subsystem of the
// OCTOPUS reproduction. It has two halves:
//
//   - Snapshots: a versioned, checksummed binary codec that serializes a
//     complete built core.System — graph, action log, learned TIC and
//     keyword/topic models, the precomputed online indexes, and the
//     build configuration — so a process cold-starts by decoding arrays
//     instead of re-running EM and index precomputation (Save / Load).
//
//   - WAL: a write-ahead log of streamed ingest events (CRC-framed
//     records, fsync-batched group commit) paired with snapshot
//     checkpoints (Open / Dir). Open decodes the latest checkpoint and
//     keeps the WAL records logged after it; the live ingester
//     (stream.NewLiveSystem) replays that tail through its ordinary
//     apply path and folds it, so a killed live process resumes with
//     every durably logged event intact. store merges nothing itself:
//     there is one fold path, the live one.
//
// # Snapshot format
//
// A snapshot is a magic header followed by length-prefixed sections,
// each independently CRC-checksummed. The current format (version 3)
// keeps every section header, payload and trailer 8-byte aligned in
// the file so a mapped reader (Map/MapParts) can alias bulk arrays in
// place:
//
//	"OCTSNAP3"
//	section := tag[4] | pad[4] | payloadLen u64
//	           | payload | pad to 8 | crc32c(payload) u32 | pad[4]
//	sections, in order: META GRPH ALOG TICM TOPC OTIM TAGS CONF DONE
//
// This is the only generation there is: a file with another magic, META
// format version or section payload version is rejected — snapshots are
// regenerated with `octopus build`, never migrated.
//
// All integers are little-endian. Section payloads are the binary
// codecs of the owning packages (graph.WriteBinary, tic.WriteBinary,
// topic.WriteBinary, otim.WriteBinary, tags.WriteBinary) plus
// store-local codecs for the action log and the build configuration.
// A corrupt, truncated or version-skewed file is rejected with a
// descriptive error naming the section and its byte offset; Save
// writes through a temp file and renames, so a crash mid-save never
// clobbers the previous snapshot.
//
// # Durability semantics
//
// WAL records carry the per-topic prior probabilities assigned to new
// edges at apply time, so the replayed fold reproduces the exact model
// the live system had: the checkpoint it writes is byte-identical to
// the one an uninterrupted run writes at the same version. A checkpoint
// appends and fsyncs a fence naming its version before the snapshot
// write and rotates the WAL after it; Open cuts the log at the fence
// matching the snapshot on disk, so a crash at any step neither loses
// nor double-applies a record.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"octopus/internal/actionlog"
	"octopus/internal/arena"
	"octopus/internal/binio"
	"octopus/internal/core"
	"octopus/internal/graph"
	"octopus/internal/otim"
	"octopus/internal/tags"
	"octopus/internal/tic"
	"octopus/internal/topic"
)

// formatVersion is the snapshot format version recorded in META (the
// aligned, mappable framing).
const formatVersion = 3

// snapshotMagic opens every snapshot file.
const snapshotMagic = "OCTSNAP3"

// maxSectionLen bounds a declared section payload length (8 GiB).
const maxSectionLen = 8 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section tags, in file order.
var (
	tagMeta  = [4]byte{'M', 'E', 'T', 'A'}
	tagGraph = [4]byte{'G', 'R', 'P', 'H'}
	tagLog   = [4]byte{'A', 'L', 'O', 'G'}
	tagTIC   = [4]byte{'T', 'I', 'C', 'M'}
	tagTopic = [4]byte{'T', 'O', 'P', 'C'}
	tagOTIM  = [4]byte{'O', 'T', 'I', 'M'}
	tagTags  = [4]byte{'T', 'A', 'G', 'S'}
	tagConf  = [4]byte{'C', 'O', 'N', 'F'}
	tagDone  = [4]byte{'D', 'O', 'N', 'E'}
)

// pad8 returns the zero-byte count that aligns n to 8.
func pad8(n int) int { return (8 - n%8) % 8 }

// sectionFrameLen returns the on-disk size of one framed section.
func sectionFrameLen(payloadLen int) int64 {
	return int64(16 + payloadLen + pad8(payloadLen) + 8)
}

// writeSection frames one section: a 16-byte header (tag, 4 pad bytes,
// payload length), the payload, zero padding to the next 8-byte
// boundary, the payload CRC and 4 more pad bytes. Since the magic is 8
// bytes, every header — and therefore every payload — starts at a file
// offset divisible by 8, which is what lets the mapped reader alias
// the payloads' bulk arrays in place. The payload is never held: enc
// runs once through a byte counter for the header's length and again
// straight into w through the CRC, and the two passes must agree.
func writeSection(w io.Writer, tag [4]byte, enc func(io.Writer) error) error {
	var n countWriter
	if err := enc(&n); err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[0:4], tag[:])
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	cw := crcWriter{w: w}
	if err := enc(&cw); err != nil {
		return err
	}
	if cw.n != int64(n) {
		return fmt.Errorf("encoder wrote %d bytes after a length pass of %d", cw.n, n)
	}
	var tail [15]byte // payload pad (0-7) + crc u32 + pad[4]
	pad := pad8(int(n))
	binary.LittleEndian.PutUint32(tail[pad:pad+4], cw.crc)
	_, err := w.Write(tail[:pad+8])
	return err
}

// countWriter counts the bytes written to it and discards them.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// crcWriter forwards to w, keeping the CRC32C and count of what w took.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	c.n += int64(n)
	return n, err
}

// checkMagic rejects a file that does not open with snapshotMagic.
func checkMagic(magic []byte) error {
	if string(magic) != snapshotMagic {
		return fmt.Errorf("store: snapshot generation %q is not supported; regenerate with `octopus build`", magic)
	}
	return nil
}

// sectionLen validates a 16-byte section header against the wanted tag
// and returns the declared payload length. size is the total stream or
// file size when known (negative otherwise) — an upper bound no honest
// section can exceed, so a corrupt length field fails before anything
// is allocated or sliced.
func sectionLen(hdr []byte, want [4]byte, size int64) (uint64, error) {
	if [4]byte(hdr[0:4]) != want {
		return 0, fmt.Errorf("store: expected %s section, found %q", want[:], hdr[0:4])
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	limit := uint64(maxSectionLen)
	if size >= 0 && uint64(size) < limit {
		limit = uint64(size)
	}
	if n > limit {
		return 0, fmt.Errorf("store: %s section declares %d bytes (limit %d)", want[:], n, limit)
	}
	return n, nil
}

// readSection reads one framed section from a stream, checking its
// CRC. size is the total stream size when known (see sectionLen).
func readSection(r io.Reader, want [4]byte, size int64) ([]byte, error) {
	name := string(want[:])
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: truncated before %s section: %w", name, err)
	}
	n, err := sectionLen(hdr[:], want, size)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, int(n)+pad8(int(n)))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("store: truncated %s section: %w", name, err)
	}
	var tail [8]byte // crc u32 + pad[4]
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("store: truncated %s checksum: %w", name, err)
	}
	payload = payload[:n:n]
	if got := crc32.Checksum(payload, crcTable); got != binary.LittleEndian.Uint32(tail[:4]) {
		return nil, fmt.Errorf("store: %s section checksum mismatch", name)
	}
	return payload, nil
}

// Write serializes sys as a snapshot to w. version is an informational
// generation counter (the streaming snapshot version at checkpoint
// time; 1 for a freshly built system). Each section is encoded twice —
// a length pass, then the bytes themselves straight into w — so no
// payload is buffered and Write allocates a small fraction of what it
// writes; give it a buffered w.
func Write(w io.Writer, sys *core.System, version uint64) error {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	for _, s := range []struct {
		tag [4]byte
		enc func(io.Writer) error
	}{
		{tagMeta, func(w io.Writer) error {
			bw := binio.NewWriter(w)
			bw.U32(formatVersion)
			bw.U64(version)
			return bw.Flush()
		}},
		{tagGraph, func(w io.Writer) error { return graph.WriteBinary(w, sys.Graph()) }},
		{tagLog, func(w io.Writer) error { return writeLog(w, sys.ActionLog()) }},
		{tagTIC, func(w io.Writer) error { return tic.WriteBinary(w, sys.Propagation()) }},
		{tagTopic, func(w io.Writer) error { return topic.WriteBinary(w, sys.Keywords()) }},
		{tagOTIM, func(w io.Writer) error { return otim.WriteBinary(w, sys.OTIMIndex()) }},
		{tagTags, func(w io.Writer) error { return tags.WriteBinary(w, sys.TagsIndex()) }},
		{tagConf, func(w io.Writer) error { return writeConfig(w, sys.BuildConfig()) }},
		{tagDone, func(io.Writer) error { return nil }},
	} {
		if err := writeSection(w, s.tag, s.enc); err != nil {
			return fmt.Errorf("store: write %s section: %w", s.tag[:], err)
		}
	}
	return nil
}

// Parts are the decoded sections of a snapshot, before Build assembles
// them into a System: ReadParts copies them onto the heap, MapParts
// aliases a mapped file.
type Parts struct {
	Graph *graph.Graph
	// Log is the decoded action log. On the mapped path it is nil and
	// LogFn decodes it on demand instead (the log is the largest section
	// and no query holds it); LogCounts are then its totals, taken by a
	// walk of the payload that decodes nothing.
	Log       *actionlog.Log
	LogFn     func() (*actionlog.Log, error)
	LogCounts core.LogCounts
	Prop      *tic.Model
	Words     *topic.Model
	OTIM      *otim.Index // precomputed keyword-IM index, bound to Prop
	Tags      *tags.Index // precomputed influencer index, bound to Prop
	Config    core.Config // GroundTruth/GroundTruthWords not yet attached
	Version   uint64      // snapshot generation recorded at save time
}

// decodeErr wraps a section-payload decode failure with the section
// name and the byte offset its frame starts at, so a corrupt snapshot
// points straight at the bad section.
func decodeErr(tag [4]byte, start int64, err error) error {
	return fmt.Errorf("store: decode %s section at byte offset %d: %w", tag[:], start, err)
}

// readMeta decodes the META payload, rejecting any format version but
// the current one, and returns the snapshot generation counter.
func readMeta(meta []byte) (uint64, error) {
	mr := arena.NewReader(meta)
	fv := mr.U32()
	version := mr.U64()
	if err := mr.Err(); err != nil {
		return 0, err
	}
	if fv != formatVersion {
		return 0, fmt.Errorf("snapshot generation %d is not supported; regenerate with `octopus build`", fv)
	}
	return version, nil
}

// decodeParts is the one section-by-section decode both backings
// share. next frames the following section (from a stream or out of
// mapped bytes) and reports the file offset its frame starts at; open
// turns a bulk-array payload into a reader — copying or aliasing —
// whose copy fallbacks are summed into the second return. With
// deferLog the action log is not decoded here: Parts.LogFn decodes it
// on first use (the log is the largest decode on the cold-start path
// and pure IM queries never need it) and only its counts are walked,
// which requires next to have CRC-verified the ALOG payload.
func decodeParts(next func(want [4]byte) ([]byte, int64, error), open func([]byte) *arena.Reader, deferLog bool) (*Parts, int, error) {
	p := &Parts{}
	fallbacks := 0
	// bulk adapts a codec's ReadView to a section payload. The reader
	// lives only as long as the decode, so a heap load never holds more
	// than one raw payload at a time.
	bulk := func(read func(*arena.Reader) error) func([]byte, int64) error {
		return func(b []byte, _ int64) error {
			r := open(b)
			err := read(r)
			fallbacks += r.Fallbacks()
			return err
		}
	}
	for _, s := range []struct {
		tag    [4]byte
		decode func(b []byte, at int64) error
	}{
		{tagMeta, func(b []byte, _ int64) (err error) {
			p.Version, err = readMeta(b)
			return err
		}},
		{tagGraph, bulk(func(r *arena.Reader) (err error) {
			p.Graph, err = graph.ReadView(r)
			return err
		})},
		{tagLog, func(b []byte, at int64) (err error) {
			if deferLog {
				if p.LogCounts, err = logCounts(b, p.Graph.NumNodes()); err != nil {
					return err
				}
				p.LogFn = func() (*actionlog.Log, error) {
					l, err := readLog(b)
					if err != nil {
						return nil, decodeErr(tagLog, at, err)
					}
					return l, nil
				}
				return nil
			}
			p.Log, err = readLog(b)
			return err
		}},
		{tagTIC, bulk(func(r *arena.Reader) (err error) {
			p.Prop, err = tic.ReadView(r, p.Graph)
			return err
		})},
		{tagTopic, bulk(func(r *arena.Reader) (err error) {
			p.Words, err = topic.ReadView(r)
			return err
		})},
		{tagOTIM, bulk(func(r *arena.Reader) (err error) {
			p.OTIM, err = otim.ReadView(r, p.Prop)
			return err
		})},
		{tagTags, bulk(func(r *arena.Reader) (err error) {
			p.Tags, err = tags.ReadView(r, p.Prop)
			return err
		})},
		{tagConf, func(b []byte, _ int64) (err error) {
			p.Config, err = readConfig(b)
			return err
		}},
		{tagDone, func([]byte, int64) error { return nil }},
	} {
		payload, at, err := next(s.tag)
		if err != nil {
			return nil, 0, err
		}
		if err := s.decode(payload, at); err != nil {
			return nil, 0, decodeErr(s.tag, at, err)
		}
	}
	if p.Prop.NumTopics() != p.Words.NumTopics() {
		return nil, 0, fmt.Errorf("store: tic model has %d topics, keyword model %d",
			p.Prop.NumTopics(), p.Words.NumTopics())
	}
	return p, fallbacks, nil
}

// ReadParts decodes a snapshot stream into its components without
// building the system. Everything is copied onto the heap, one section
// at a time; the mapped (zero-copy) equivalent is MapParts.
func ReadParts(r io.Reader) (*Parts, error) {
	// Total stream size, when knowable — bounds every section's declared
	// payload length before allocation.
	size := int64(-1)
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case *os.File:
		if st, err := v.Stat(); err == nil {
			size = st.Size()
		}
	}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("store: read magic: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	pos := int64(len(magic))
	next := func(want [4]byte) ([]byte, int64, error) {
		start := pos
		payload, err := readSection(r, want, size)
		if err == nil {
			pos += sectionFrameLen(len(payload))
		}
		return payload, start, err
	}
	p, _, err := decodeParts(next, arena.NewReader, false)
	return p, err
}

// Build assembles the system from decoded parts: no model learning and
// no index precomputation — the decoded indexes are adopted directly
// and only the cheap derived structures are reconstructed (lazily when
// the parts carry a deferred log, i.e. came from MapParts).
func (p *Parts) Build() (*core.System, error) {
	cfg := p.Config
	cfg.GroundTruth = p.Prop
	cfg.GroundTruthWords = p.Words
	// The decoded keyword model already carries its topic names;
	// re-applying cfg.TopicNames would be redundant at best and reject a
	// model whose names were set after the config was captured.
	cfg.TopicNames = nil
	var sys *core.System
	var err error
	if p.Log == nil && p.LogFn != nil {
		sys, err = core.AssembleDeferred(p.Graph, p.LogFn, p.LogCounts, p.Prop, p.Words, p.OTIM, p.Tags, cfg)
	} else {
		sys, err = core.Assemble(p.Graph, p.Log, p.Prop, p.Words, p.OTIM, p.Tags, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("store: rebuild from snapshot: %w", err)
	}
	return sys, nil
}

// Read decodes a snapshot and assembles the system: no EM and no index
// precomputation — the serialized models and indexes are adopted
// directly. The second return is the snapshot generation recorded at
// save time.
func Read(r io.Reader) (*core.System, uint64, error) {
	p, err := ReadParts(r)
	if err != nil {
		return nil, 0, err
	}
	sys, err := p.Build()
	if err != nil {
		return nil, 0, err
	}
	return sys, p.Version, nil
}

// Save writes sys to path atomically (temp file + rename + fsync).
func Save(path string, sys *core.System) error {
	return saveVersion(path, sys, 1)
}

// PeekVersion reads just the checkpoint version of the snapshot at
// path — the magic and the META section — without decoding the rest.
// Replication uses it to label a snapshot before (or instead of)
// loading it.
func PeekVersion(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: peek version: %w", err)
	}
	defer f.Close()
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return 0, fmt.Errorf("store: peek version: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return 0, err
	}
	meta, err := readSection(f, tagMeta, -1)
	if err != nil {
		return 0, err
	}
	version, err := readMeta(meta)
	if err != nil {
		return 0, decodeErr(tagMeta, int64(len(magic)), err)
	}
	return version, nil
}

func saveVersion(path string, sys *core.System, version uint64) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := func() error {
		bw := bufio.NewWriter(tmp)
		if err := Write(bw, sys, version); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := tmp.Sync(); err != nil {
			return err
		}
		return tmp.Close()
	}(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: save: %w", err)
	}
	// CreateTemp defaults to 0600; snapshots are plain data files.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir best-effort fsyncs a directory so a rename is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Load reads a snapshot file and rebuilds the system.
func Load(path string) (*core.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	sys, _, err := Read(f)
	return sys, err
}

// ---- Action log payload ----

func writeLog(w io.Writer, l *actionlog.Log) error {
	bw := binio.NewWriter(w)
	bw.U64(uint64(l.NumUsers))
	bw.U64(uint64(len(l.Episodes)))
	for _, ep := range l.Episodes {
		bw.I32(ep.Item.ID)
		bw.Strs(ep.Item.Keywords)
		bw.U64(uint64(len(ep.Actions)))
		for _, a := range ep.Actions {
			bw.I32(a.User)
			bw.I64(a.Time)
		}
	}
	return bw.Flush()
}

func readLog(b []byte) (*actionlog.Log, error) {
	br := arena.NewReader(b)
	numUsers := int(br.U64())
	numEps := int(br.U64())
	if err := br.Err(); err != nil {
		return nil, err
	}
	if numUsers < 0 || numEps < 0 || numEps > arena.MaxLen {
		return nil, fmt.Errorf("actionlog payload dimensions out of range")
	}
	// The payload was written from an already-built log, so episodes are
	// grouped and their actions ordered — reconstruct directly instead of
	// paying actionlog.Build's regroup (the log is the largest section on
	// the cold-start path). Invariants are still verified: any violation
	// (hand-crafted or stale file) rejects the payload.
	log := &actionlog.Log{NumUsers: numUsers}
	seenItems := make(map[int32]struct{}, numEps)
	for e := 0; e < numEps && br.Err() == nil; e++ {
		id := br.I32()
		kws := br.Strs()
		n := int(br.U64())
		if br.Err() != nil {
			break
		}
		if n < 0 || n > arena.MaxLen {
			return nil, fmt.Errorf("actionlog payload action count out of range")
		}
		if _, dup := seenItems[id]; dup {
			return nil, fmt.Errorf("actionlog payload repeats item %d", id)
		}
		seenItems[id] = struct{}{}
		ep := actionlog.Episode{Item: actionlog.Item{ID: id, Keywords: kws}}
		if n > 0 {
			ep.Actions = make([]actionlog.Action, 0, n)
		}
		for i := 0; i < n && br.Err() == nil; i++ {
			a := actionlog.Action{User: br.I32(), Item: id, Time: br.I64()}
			if br.Err() != nil {
				break
			}
			if a.User < 0 || int(a.User) >= numUsers {
				return nil, fmt.Errorf("actionlog payload action user %d out of range", a.User)
			}
			if i > 0 {
				prev := ep.Actions[i-1]
				if a.Time < prev.Time || (a.Time == prev.Time && a.User <= prev.User) {
					return nil, fmt.Errorf("actionlog payload episode %d actions out of order", id)
				}
			}
			ep.Actions = append(ep.Actions, a)
		}
		log.Episodes = append(log.Episodes, ep)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// logCounts walks an ALOG payload for its episode and action totals and
// its actor set over the graph's nodes without decoding it: keywords
// and times are skipped, not read, and nothing is allocated per
// episode.
func logCounts(b []byte, nodes int) (core.LogCounts, error) {
	br := arena.NewReader(b)
	br.U64() // numUsers
	numEps := br.U64()
	if br.Err() == nil && numEps > arena.MaxLen {
		return core.LogCounts{}, fmt.Errorf("actionlog payload dimensions out of range")
	}
	c := core.NewLogCounts(nodes)
	c.Episodes = int(numEps)
	for e := 0; e < c.Episodes && br.Err() == nil; e++ {
		br.Skip(4) // item id
		for k := br.U64(); k > 0 && br.Err() == nil; k-- {
			br.Skip(int(br.U32()))
		}
		n := br.U64()
		if n > arena.MaxLen {
			return core.LogCounts{}, fmt.Errorf("actionlog payload action count out of range")
		}
		for ; n > 0 && br.Err() == nil; n-- {
			c.AddAction(br.I32())
			br.Skip(8) // time
		}
	}
	return c, br.Err()
}

// ---- Build config payload ----

const configVersion = 2

func writeConfig(w io.Writer, cfg core.Config) error {
	bw := binio.NewWriter(w)
	bw.U8(configVersion)
	bw.I64(int64(cfg.Topics))
	bw.I64(int64(cfg.EMIterations))
	bw.I64(int64(cfg.EMRestarts))
	bw.U64(cfg.Seed)
	bw.F64(cfg.OTIM.ThetaPre)
	bw.I64(int64(cfg.Tags.Polls))
	bw.I64(int64(cfg.Tags.MaxDepth))
	bw.I64(int64(cfg.Tags.MaxTreeNodes))
	bw.U64(cfg.Tags.Seed)
	bw.Strs(cfg.TopicNames)
	return bw.Flush()
}

func readConfig(b []byte) (core.Config, error) {
	br := arena.NewReader(b)
	var cfg core.Config
	if v := br.U8(); br.Err() == nil && v != configVersion {
		return cfg, fmt.Errorf("snapshot generation %d is not supported; regenerate with `octopus build`", v)
	}
	cfg.Topics = int(br.I64())
	cfg.EMIterations = int(br.I64())
	cfg.EMRestarts = int(br.I64())
	cfg.Seed = br.U64()
	cfg.OTIM.ThetaPre = br.F64()
	cfg.Tags.Polls = int(br.I64())
	cfg.Tags.MaxDepth = int(br.I64())
	cfg.Tags.MaxTreeNodes = int(br.I64())
	cfg.Tags.Seed = br.U64()
	if names := br.Strs(); len(names) > 0 {
		cfg.TopicNames = names
	}
	return cfg, br.Err()
}
