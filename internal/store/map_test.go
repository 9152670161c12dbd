package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"octopus/internal/actionlog"
	"octopus/internal/arena"
	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/tags"
)

func TestMapServesIdenticalResults(t *testing.T) {
	sys := buildSystem(t, 300, 21)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mappedSys, m, err := Map(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats()
	if arena.MapSupported() && arena.LittleEndianHost() && mmapEnabled() {
		if st.Backing != "mmap" {
			t.Fatalf("backing = %q, want mmap", st.Backing)
		}
		if st.MappedBytes != st.FileSize {
			t.Fatalf("mapped %d bytes of a %d-byte file", st.MappedBytes, st.FileSize)
		}
		if st.CopyFallbacks != 0 {
			t.Fatalf("%d arrays fell back to copies on an aligned v3 file", st.CopyFallbacks)
		}
	}
	if st.FormatVersion != formatVersion {
		t.Fatalf("format version %d, want %d", st.FormatVersion, formatVersion)
	}
	// Query-for-query identity: the mapped system must answer exactly
	// like the heap-decoded one (and like the original).
	assertSystemsEquivalent(t, sys, mappedSys)
	assertSystemsEquivalent(t, heap, mappedSys)
}

// TestMappedLogDecodes pins when a mapped system decodes its deferred
// action log: never for Stats or the held user keys, exactly once for
// the keyword pools
// (which keep only their id table), and once more for an explicit
// ActionLog — proof that the pools' decode was not retained.
func TestMappedLogDecodes(t *testing.T) {
	sys := buildSystem(t, 200, 5)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	p, m, err := MapParts(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if p.LogFn == nil {
		t.Skipf("backing %q decodes the log eagerly", m.Stats().Backing)
	}
	decodes := 0
	decode := p.LogFn
	p.LogFn = func() (*actionlog.Log, error) {
		decodes++
		return decode()
	}
	mapped, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	expect := func(step string, want int) {
		t.Helper()
		if decodes != want {
			t.Fatalf("after %s: %d log decodes, want %d", step, decodes, want)
		}
	}

	if got, want := mapped.Stats(), heap.Stats(); got != want {
		t.Fatalf("mapped stats %+v, loaded %+v", got, want)
	}
	expect("Stats", 0)
	if got, want := mapped.HeldUserKeys(), heap.HeldUserKeys(); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Fatalf("mapped holds %d user keys, loaded %d", len(got), len(want))
	}
	expect("the held user keys", 0)

	target := graph.NodeID(-1)
	for u := 0; u < heap.Graph().NumNodes() && target < 0; u++ {
		if len(heap.UserKeywords(graph.NodeID(u))) >= 3 {
			target = graph.NodeID(u)
		}
	}
	if target < 0 {
		t.Fatal("no user with a keyword pool")
	}
	if _, err := mapped.SuggestKeywords(target, 2, tags.SuggestOptions{}); err != nil {
		t.Fatal(err)
	}
	expect("the first suggest", 1)
	if _, err := mapped.SuggestKeywords(target, 3, tags.SuggestOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.RankUserKeywords(target, 5, nil); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < heap.Graph().NumNodes(); u++ {
		if got, want := mapped.UserKeywords(graph.NodeID(u)), heap.UserKeywords(graph.NodeID(u)); !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d pool %v, loaded %v", u, got, want)
		}
	}
	expect("a second suggest, a ranking and every pool", 1)

	if got, want := mapped.ActionLog().NumActions(), heap.ActionLog().NumActions(); got != want {
		t.Fatalf("mapped log has %d actions, loaded %d", got, want)
	}
	expect("ActionLog", 2)
	mapped.ActionLog()
	expect("a second ActionLog", 2)
}

func TestMapWarmup(t *testing.T) {
	sys := buildSystem(t, 150, 9)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	warmSys, m, err := Map(path, MapOptions{Warmup: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats()
	if arena.MapSupported() && arena.LittleEndianHost() && mmapEnabled() {
		if st.WarmedBytes != st.FileSize {
			t.Fatalf("warmed %d bytes of a %d-byte file", st.WarmedBytes, st.FileSize)
		}
		if st.ResidentBytes >= 0 && st.ResidentBytes < st.FileSize {
			t.Fatalf("after warmup only %d of %d bytes resident", st.ResidentBytes, st.FileSize)
		}
	} else if st.WarmedBytes != 0 {
		t.Fatalf("copying path reported %d warmed bytes", st.WarmedBytes)
	}
	// Warmup must not change answers.
	assertSystemsEquivalent(t, sys, warmSys)
}

func TestMapVerifyOption(t *testing.T) {
	sys := buildSystem(t, 120, 7)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	// Full verification passes on a good file.
	mappedSys, m, err := Map(path, MapOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	_ = mappedSys

	// A flipped bit in a bulk section goes undetected by the default
	// (lazy) open if the shape still parses, but Verify catches it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secs := walkV3(t, data)
	grph := secs["GRPH"]
	bad := append([]byte(nil), data...)
	bad[grph.payloadAt+grph.n-1] ^= 0x01 // low bit of a trailing array value
	badPath := filepath.Join(t.TempDir(), "bad.oct")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, mm, err := MapParts(badPath, MapOptions{Verify: true}); err == nil {
		mm.Close()
		t.Fatal("Verify:true accepted a corrupted bulk section")
	} else if !strings.Contains(err.Error(), "GRPH") {
		t.Fatalf("corruption error does not name the section: %v", err)
	}
}

func TestMapEnvDisabled(t *testing.T) {
	t.Setenv(mmapEnv, "off")
	sys := buildSystem(t, 120, 3)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	mappedSys, m, err := Map(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.Stats(); st.Backing != "heap (mmap-disabled)" {
		t.Fatalf("backing = %q, want heap (mmap-disabled)", st.Backing)
	}
	assertSystemsEquivalent(t, sys, mappedSys)
}

// v3Section describes one frame found by walkV3.
type v3Section struct {
	frameAt   int64 // offset of the 16-byte header
	payloadAt int64 // offset of the payload
	n         int64 // payload length
}

// walkV3 walks a current-format snapshot's frames by header arithmetic
// alone (no decoding), failing the test on any framing inconsistency.
func walkV3(t *testing.T, data []byte) map[string]v3Section {
	t.Helper()
	if string(data[:8]) != snapshotMagic {
		t.Fatalf("bad magic %q", data[:8])
	}
	secs := make(map[string]v3Section)
	pos := int64(8)
	order := []string{"META", "GRPH", "ALOG", "TICM", "TOPC", "OTIM", "TAGS", "CONF", "DONE"}
	for _, want := range order {
		if pos+16 > int64(len(data)) {
			t.Fatalf("truncated before %s at %d", want, pos)
		}
		tag := string(data[pos : pos+4])
		if tag != want {
			t.Fatalf("section %q at offset %d, want %s", tag, pos, want)
		}
		n := int64(binary.LittleEndian.Uint64(data[pos+8 : pos+16]))
		secs[want] = v3Section{frameAt: pos, payloadAt: pos + 16, n: n}
		pos += sectionFrameLen(int(n))
	}
	if pos != int64(len(data)) {
		t.Fatalf("file is %d bytes, frames cover %d", len(data), pos)
	}
	return secs
}

// patchSection overwrites one byte of a section's payload and rewrites
// the section CRC, so the change reaches the decoder rather than the
// checksum.
func patchSection(data []byte, s v3Section, off int64, val byte) {
	data[s.payloadAt+off] = val
	crcAt := s.payloadAt + s.n + int64(pad8(int(s.n)))
	crc := crc32.Checksum(data[s.payloadAt:s.payloadAt+s.n], crcTable)
	binary.LittleEndian.PutUint32(data[crcAt:], crc)
}

// replaceSection returns data with one section's payload swapped for
// another, reframed (length, padding and CRC) so only the payload's
// content can be rejected.
func replaceSection(data []byte, s v3Section, payload []byte) []byte {
	var out bytes.Buffer
	out.Write(data[:s.frameAt])
	_ = writeSection(&out, [4]byte(data[s.frameAt:s.frameAt+4]), func(w io.Writer) error { // bytes.Buffer writes cannot fail
		_, err := w.Write(payload)
		return err
	})
	out.Write(data[s.frameAt+sectionFrameLen(int(s.n)):])
	return out.Bytes()
}

// TestRejectsOtherGenerations: there is one snapshot generation. A file
// with the previous magic, another META format version, or another
// version byte on any section payload is rejected by every reader that
// gets as far as the skew — Load and Map always, PeekVersion for the
// magic and META it reads — with an error that names the section and
// says how to get a loadable file. testdata/otim-v3.payload,
// otim-v4.payload and otim-v5.payload are the OTIM payloads the three
// previous codecs wrote for the golden system: version 3 with the
// per-sample fold certificates, version 4 with the neighborhood bound's
// cap and weighted degrees, version 5 with the topic-sample block.
func TestRejectsOtherGenerations(t *testing.T) {
	sys := buildSystem(t, 120, 3)
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	secs := walkV3(t, valid)
	otimV3, err := os.ReadFile(filepath.Join("testdata", "otim-v3.payload"))
	if err != nil {
		t.Fatal(err)
	}
	otimV4, err := os.ReadFile(filepath.Join("testdata", "otim-v4.payload"))
	if err != nil {
		t.Fatal(err)
	}
	otimV5, err := os.ReadFile(filepath.Join("testdata", "otim-v5.payload"))
	if err != nil {
		t.Fatal(err)
	}
	type skew struct {
		name  string
		patch func(data []byte) []byte
		want  string // names what is skewed
		peek  bool   // PeekVersion reads far enough to see it
	}
	cases := []skew{
		{"magic", func(d []byte) []byte { copy(d, "OCTSNAP1"); return d }, `"OCTSNAP1"`, true},
		{"META", func(d []byte) []byte { patchSection(d, secs["META"], 0, formatVersion-1); return d }, "META", true},
		{"OTIM-v3-payload", func(d []byte) []byte { return replaceSection(d, secs["OTIM"], otimV3) }, "OTIM", false},
		{"OTIM-v4-payload", func(d []byte) []byte { return replaceSection(d, secs["OTIM"], otimV4) }, "OTIM", false},
		{"OTIM-v5-payload", func(d []byte) []byte { return replaceSection(d, secs["OTIM"], otimV5) }, "OTIM", false},
	}
	for _, name := range []string{"GRPH", "TICM", "TOPC", "OTIM", "TAGS", "CONF"} {
		s := secs[name]
		cases = append(cases, skew{name, func(d []byte) []byte { patchSection(d, s, 0, d[s.payloadAt]-1); return d }, name, false})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.patch(append([]byte(nil), valid...))
			path := filepath.Join(t.TempDir(), "old.oct")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(reader string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the file", reader)
				}
				for _, sub := range []string{c.want, "is not supported; regenerate with `octopus build`"} {
					if !strings.Contains(err.Error(), sub) {
						t.Fatalf("%s error %q does not contain %q", reader, err, sub)
					}
				}
			}
			_, err := Load(path)
			check("Load", err)
			_, m, err := Map(path, MapOptions{})
			if err == nil {
				m.Close()
			}
			check("Map", err)
			if c.peek {
				_, err := PeekVersion(path)
				check("PeekVersion", err)
			}
		})
	}
}

// TestAlignmentGolden pins the v3 framing invariant the zero-copy
// readers rely on: every section header, payload and frame length is
// 8-aligned, so in-payload Align8 discipline is enough to give every
// bulk array an 8-aligned file offset.
func TestAlignmentGolden(t *testing.T) {
	sys := buildSystem(t, 300, 21)
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	secs := walkV3(t, data)
	for name, s := range secs {
		if s.frameAt%8 != 0 {
			t.Errorf("%s header at %d: not 8-aligned", name, s.frameAt)
		}
		if s.payloadAt%8 != 0 {
			t.Errorf("%s payload at %d: not 8-aligned", name, s.payloadAt)
		}
		if sectionFrameLen(int(s.n))%8 != 0 {
			t.Errorf("%s frame length %d: not a multiple of 8", name, sectionFrameLen(int(s.n)))
		}
	}
	// The golden offsets of the fixed-size prefix: META's frame directly
	// follows the 8-byte magic and spans 40 bytes, so GRPH's payload —
	// the first bulk array — always starts at byte 64.
	if s := secs["META"]; s.frameAt != 8 || s.n != 12 {
		t.Errorf("META frame at %d len %d, want 8 len 12", s.frameAt, s.n)
	}
	if s := secs["GRPH"]; s.payloadAt != 64 {
		t.Errorf("GRPH payload at %d, want 64", s.payloadAt)
	}
}

// TestDecodeErrorNamesSectionAndOffset covers the partial-failure
// contract: a mid-file decode error names the section and the byte
// offset of its frame, for both the copying and the mapped reader. The
// corruption recomputes the CRC so it reaches the decoder rather than
// the checksum.
func TestDecodeErrorNamesSectionAndOffset(t *testing.T) {
	sys := buildSystem(t, 120, 3)
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	secs := walkV3(t, data)
	g := secs["GRPH"]
	data[g.payloadAt] = 0xff // impossible codec version byte
	crcAt := g.payloadAt + g.n + int64(pad8(int(g.n)))
	crc := crc32.Checksum(data[g.payloadAt:g.payloadAt+g.n], crcTable)
	binary.LittleEndian.PutUint32(data[crcAt:], crc)

	wantSub := "decode GRPH section at byte offset 48"
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("copying reader accepted a corrupt GRPH payload")
	} else if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("copying reader error %q does not contain %q", err, wantSub)
	}

	path := filepath.Join(t.TempDir(), "bad.oct")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, m, err := MapParts(path, MapOptions{}); err == nil {
		m.Close()
		t.Fatal("mapped reader accepted a corrupt GRPH payload")
	} else if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("mapped reader error %q does not contain %q", err, wantSub)
	}
}

// FuzzMapParts feeds arbitrary bytes to the mapped opener. The
// invariants: never panic, never read outside the file, and fail
// cleanly on torn or truncated input. A successfully opened Parts is
// additionally asked to decode its deferred log, so the lazy path is
// fuzzed too.
func FuzzMapParts(f *testing.F) {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 60, Topics: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("OCTSNAP1")) // old generation: rejected at the magic
	truncTail := append([]byte(nil), valid[:len(valid)-3]...)
	f.Add(truncTail)
	flipped := append([]byte(nil), valid...)
	flipped[70] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.oct")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, m, err := MapParts(path, MapOptions{Verify: true})
		if err != nil {
			return // clean failure is the expected outcome
		}
		defer m.Close()
		if p.Log == nil && p.LogFn != nil {
			l, err := p.LogFn()
			if err != nil {
				// Verify:true checksums ALOG up front, so the deferred
				// decode can only fail on inputs that collide CRC32 —
				// report it, that would break the lazy-decode contract.
				t.Fatalf("CRC-verified log failed to decode: %v", err)
			}
			want := core.NewLogCounts(p.Graph.NumNodes())
			want.Episodes = len(l.Episodes)
			for _, a := range l.Actions() {
				want.AddAction(a.User)
			}
			if !reflect.DeepEqual(p.LogCounts, want) {
				t.Fatalf("walked log counts %+v, decoded %+v", p.LogCounts, want)
			}
		}
	})
}
