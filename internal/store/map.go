package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"

	"octopus/internal/arena"
	"octopus/internal/core"
)

// mmapEnv is the environment knob that disables zero-copy mapping.
// Setting it to "off", "0", "false" or "copy" makes Map/MapParts take
// the copying path (identical results, heap-backed arrays); anything
// else, including unset, leaves mapping on. CI runs the short suite
// under both settings.
const mmapEnv = "OCTOPUS_MMAP"

func mmapEnabled() bool {
	switch strings.ToLower(os.Getenv(mmapEnv)) {
	case "off", "0", "false", "copy":
		return false
	}
	return true
}

// MapOptions controls a mapped snapshot open.
type MapOptions struct {
	// Verify checks every section's CRC at open time. By default only
	// the META, ALOG and CONF sections are verified eagerly: checksumming
	// the bulk-array sections would fault every page of the file and
	// forfeit the lazy cold start that mapping exists to provide. The
	// bulk sections still pass shape validation at open time, and ALOG —
	// the one section whose decode is deferred to first use — is always
	// CRC-verified up front so the deferred decode cannot hit corruption.
	Verify bool
	// Warmup prefaults the mapping at open time (madvise(WILLNEED) plus
	// a one-byte-per-page walk), trading a longer open for a first query
	// that never takes a major fault. No effect on the copying path,
	// which is fully resident by construction.
	Warmup bool
}

// MapStats describes how a snapshot is being served, for the ingest
// stats endpoint, /metrics and the diagnostics bundle.
type MapStats struct {
	Path          string `json:"path"`
	Backing       string `json:"backing"` // "mmap" or "heap (<reason>)"
	FileSize      int64  `json:"file_size_bytes"`
	MappedBytes   int64  `json:"mapped_bytes"`   // 0 when heap-backed
	ResidentBytes int64  `json:"resident_bytes"` // -1 when unknowable
	CopyFallbacks int    `json:"copy_fallbacks"` // arrays copied despite a mapped open
	FormatVersion uint32 `json:"format_version"`
	WarmedBytes   int64  `json:"warmed_bytes,omitempty"` // bytes prefaulted at open (MapOptions.Warmup)
}

// Mapped is the handle that owns a mapped snapshot's lifetime. The
// systems built over it hold an unowned pointer (core.System.Backing);
// the reference counting is done by the owners — this handle and, when
// streaming, each published snapshot generation. Close releases this
// handle's reference; the underlying mapping is unmapped only when the
// last reference (e.g. a pinned reader on an old generation) goes away.
type Mapped struct {
	mapping   *arena.Mapping
	path      string
	fileSize  int64
	backing   string
	fallbacks int
	warmed    int64
	closeOnce sync.Once
}

// Mapping exposes the underlying refcounted mapping, for publishers
// (stream snapshots) that need to take their own references.
func (m *Mapped) Mapping() *arena.Mapping { return m.mapping }

// Stats reports the current serving state. ResidentBytes is sampled
// live (mincore), so repeated calls show the page cache warming up.
func (m *Mapped) Stats() MapStats {
	s := MapStats{
		Path:          m.path,
		Backing:       m.backing,
		FileSize:      m.fileSize,
		ResidentBytes: m.mapping.Resident(),
		CopyFallbacks: m.fallbacks,
		FormatVersion: formatVersion,
		WarmedBytes:   m.warmed,
	}
	if m.mapping.Mapped() {
		s.MappedBytes = int64(m.mapping.Len())
	}
	return s
}

// Close releases this handle's reference on the mapping. Idempotent.
// Systems still pinned by in-flight readers keep the mapping alive
// through their own references; the munmap happens when the last one
// releases.
func (m *Mapped) Close() {
	m.closeOnce.Do(m.mapping.Release)
}

// mappedSection frames one section out of the mapped bytes, returning
// the payload as a subslice (no copy) and the offset of the next
// frame. verify additionally checks the payload CRC.
func mappedSection(data []byte, pos int64, want [4]byte, verify bool) ([]byte, int64, error) {
	name := string(want[:])
	if pos+16 > int64(len(data)) {
		return nil, 0, fmt.Errorf("store: truncated before %s section", name)
	}
	n, err := sectionLen(data[pos:pos+16], want, int64(len(data)))
	if err != nil {
		return nil, 0, err
	}
	end := pos + sectionFrameLen(int(n))
	if end > int64(len(data)) {
		return nil, 0, fmt.Errorf("store: truncated %s section", name)
	}
	payload := data[pos+16 : pos+16+int64(n) : pos+16+int64(n)]
	if verify {
		crcAt := pos + 16 + int64(n) + int64(pad8(int(n)))
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[crcAt:crcAt+4]) {
			return nil, 0, fmt.Errorf("store: %s section checksum mismatch", name)
		}
	}
	return payload, end, nil
}

// MapParts opens a snapshot file for in-place serving: the file is
// mmap'd read-only and the bulk arrays of the decoded parts alias the
// mapped bytes instead of being copied onto the heap. The returned
// Mapped handle owns the mapping; keep it (and call Close when done
// serving). The action log is not decoded — Parts.LogFn decodes it on
// first use, off the mapped (CRC-verified) bytes.
//
// When mapping is unavailable — OCTOPUS_MMAP=off, unsupported
// platform, or big-endian host — MapParts falls back to the copying
// path and returns a heap-backed handle whose Stats name the reason.
func MapParts(path string, opt MapOptions) (*Parts, *Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: map: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: map: %w", err)
	}
	m := &Mapped{path: path, fileSize: st.Size()}
	fallback := ""
	switch {
	case !mmapEnabled():
		fallback = "mmap-disabled"
	case !arena.MapSupported():
		fallback = "platform-unsupported"
	case !arena.LittleEndianHost():
		fallback = "big-endian-host"
	}
	if fallback != "" {
		p, err := ReadParts(f)
		if err != nil {
			return nil, nil, err
		}
		m.mapping = arena.NewHeapMapping(nil)
		m.backing = "heap (" + fallback + ")"
		return p, m, nil
	}

	mapping, err := arena.MapFile(f)
	if err != nil {
		return nil, nil, fmt.Errorf("store: map: %w", err)
	}
	p, fallbacks, err := mapParts(mapping.Bytes(), opt.Verify)
	if err != nil {
		mapping.Release()
		return nil, nil, err
	}
	m.mapping = mapping
	m.backing = "mmap"
	m.fallbacks = fallbacks
	if opt.Warmup {
		m.warmed = mapping.Warmup()
	}
	return p, m, nil
}

// mapParts decodes a snapshot out of mapped (or any) bytes with
// zero-copy readers, returning the parts and the copy-fallback count.
// Sections are subsliced, not read. Unless verifyAll, the bulk-array
// sections skip their CRC (see MapOptions.Verify); META, CONF, DONE
// and — because its decode is deferred, and core treats a LogFn
// failure as a programming error — ALOG are always checked.
func mapParts(data []byte, verifyAll bool) (*Parts, int, error) {
	if len(data) < len(snapshotMagic) {
		return nil, 0, fmt.Errorf("store: read magic: file is %d bytes", len(data))
	}
	if err := checkMagic(data[:len(snapshotMagic)]); err != nil {
		return nil, 0, err
	}
	pos := int64(len(snapshotMagic))
	next := func(want [4]byte) ([]byte, int64, error) {
		verify := verifyAll
		switch want {
		case tagMeta, tagLog, tagConf, tagDone:
			verify = true
		}
		start := pos
		payload, end, err := mappedSection(data, pos, want, verify)
		if err == nil {
			pos = end
		}
		return payload, start, err
	}
	return decodeParts(next, arena.NewZeroCopy, true)
}

// Map opens a snapshot for in-place serving and builds the system over
// it. The system's backing is wired to the mapping so snapshot-swap
// publishers can pin it; the caller owns the returned handle and must
// Close it when the system is retired.
func Map(path string, opt MapOptions) (*core.System, *Mapped, error) {
	p, m, err := MapParts(path, opt)
	if err != nil {
		return nil, nil, err
	}
	sys, err := p.Build()
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	if m.mapping.Mapped() {
		sys.SetBacking(m.mapping)
	}
	return sys, m, nil
}
