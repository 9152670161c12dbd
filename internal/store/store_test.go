package store

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
	"octopus/internal/graph"
	"octopus/internal/tags"
)

func buildSystem(t *testing.T, authors int, seed uint64) *core.System {
	t.Helper()
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: authors, Topics: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		TopicNames:       ds.TopicNames,
		Seed:             seed ^ 0x5a5a,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// assertSystemsEquivalent compares everything the snapshot promises to
// preserve: dimensions, models and exact analysis results.
func assertSystemsEquivalent(t *testing.T, want, got *core.System) {
	t.Helper()
	ws, gs := want.Stats(), got.Stats()
	if ws.Nodes != gs.Nodes || ws.Edges != gs.Edges || ws.Topics != gs.Topics ||
		ws.Vocabulary != gs.Vocabulary || ws.Episodes != gs.Episodes || ws.Actions != gs.Actions {
		t.Fatalf("stats differ: %+v vs %+v", ws, gs)
	}
	// Per-edge model probabilities must be identical.
	want.Graph().EachEdge(func(e graph.EdgeID, u, v graph.NodeID) {
		e2, ok := got.Graph().FindEdge(u, v)
		if !ok {
			t.Fatalf("edge (%d,%d) missing after reload", u, v)
		}
		if want.Propagation().MaxProb(e) != got.Propagation().MaxProb(e2) {
			t.Fatalf("edge (%d,%d) probability drifted", u, v)
		}
	})
	// Exact (non-sampled) influence queries must return the same seeds
	// with the same spreads.
	for _, q := range [][]string{{"mining", "data"}, {"learning"}} {
		r1, err := want.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := got.DiscoverInfluencers(q, core.DiscoverOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Seeds) != len(r2.Seeds) {
			t.Fatalf("query %v: %d vs %d seeds", q, len(r1.Seeds), len(r2.Seeds))
		}
		for i := range r1.Seeds {
			if r1.Seeds[i].User != r2.Seeds[i].User ||
				math.Abs(r1.Seeds[i].Spread-r2.Seeds[i].Spread) > 1e-9 {
				t.Fatalf("query %v seed %d: %+v vs %+v", q, i, r1.Seeds[i], r2.Seeds[i])
			}
		}
		if r1.Gamma.L1(r2.Gamma) != 0 {
			t.Fatalf("query %v: gamma differs: %v vs %v", q, r1.Gamma, r2.Gamma)
		}
	}
	// Topic display names survive.
	for z := 0; z < want.Keywords().NumTopics(); z++ {
		if want.Keywords().TopicName(z) != got.Keywords().TopicName(z) {
			t.Fatalf("topic %d name %q -> %q", z, want.Keywords().TopicName(z), got.Keywords().TopicName(z))
		}
	}
	// User name resolution survives.
	for u := 0; u < want.Graph().NumNodes(); u += 50 {
		if want.Graph().Name(graph.NodeID(u)) != got.Graph().Name(graph.NodeID(u)) {
			t.Fatalf("node %d name differs", u)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sys := buildSystem(t, 300, 21)
	path := filepath.Join(t.TempDir(), "model.oct")
	if err := Save(path, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSystemsEquivalent(t, sys, sys2)

	// A second generation (saving the loaded system) stays stable.
	path2 := filepath.Join(t.TempDir(), "model2.oct")
	if err := Save(path2, sys2); err != nil {
		t.Fatal(err)
	}
	sys3, err := Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	assertSystemsEquivalent(t, sys, sys3)
}

func TestSnapshotVersionCarried(t *testing.T) {
	sys := buildSystem(t, 120, 3)
	var buf bytes.Buffer
	if err := Write(&buf, sys, 42); err != nil {
		t.Fatal(err)
	}
	_, version, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if version != 42 {
		t.Fatalf("version = %d, want 42", version)
	}
}

// TestWriteAllocs: Write streams each section to w and buffers no
// payload, so a snapshot of a 2 000-author system allocates under half
// the bytes it writes.
func TestWriteAllocs(t *testing.T) {
	sys := buildSystem(t, 2000, 3)
	var n countWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Write(&n, sys, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("wrote %d bytes, allocated %.3fx that", n, ratio)
	if ratio >= 0.5 {
		t.Fatalf("Write allocated %.2fx the %d bytes it wrote, want < 0.5x", ratio, n)
	}
}

// TestWriteSectionLengthMismatch: an encoder whose second pass writes
// other bytes than its length pass counted fails the section rather
// than framing a wrong length.
func TestWriteSectionLengthMismatch(t *testing.T) {
	calls := 0
	grows := func(w io.Writer) error {
		calls++
		_, err := w.Write(make([]byte, calls))
		return err
	}
	if err := writeSection(io.Discard, tagConf, grows); err == nil {
		t.Fatal("writeSection accepted passes of 1 and 2 bytes")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	sys := buildSystem(t, 120, 5)
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A flipped payload byte inside the graph section must fail its CRC.
	bad = append([]byte(nil), full...)
	// magic + META frame (16 hdr + 12 payload + 4 pad + 4 crc + 4 pad) +
	// GRPH header (16) + 100 bytes into the GRPH payload.
	bad[len(snapshotMagic)+40+16+100] ^= 0xff
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("flipped byte accepted")
	}
	// Truncations at section granularity must fail cleanly.
	for _, cut := range []int{4, len(snapshotMagic) + 3, len(full) / 3, len(full) - 3} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A section claiming 1 MiB inside a 10 KiB file is rejected against
	// the file size, and the error prints that bound, not the 8 GiB cap.
	bad = append([]byte(nil), full[:10<<10]...)
	binary.LittleEndian.PutUint64(bad[len(snapshotMagic)+40+8:], 1<<20) // GRPH header length field
	wantSub := "GRPH section declares 1048576 bytes (limit 10240)"
	if _, _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("stream reader: error %v does not contain %q", err, wantSub)
	}
	if _, _, err := mapParts(bad, false); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("mapped reader: error %v does not contain %q", err, wantSub)
	}
}

// TestGoldenSnapshot freezes the on-disk format. testdata/golden-v3.oct
// (named for its OCTSNAP3 framing) is buildSystem(30, 21) saved, loaded
// and saved again (a first save is not a byte fixpoint: CONF drops
// TopicNames on load; the second is); it was last regenerated when the
// OTIM payload moved to version 6 and CONF to version 2, which changed
// no other section's bytes. Any change to framing or a payload layout
// fails here before it strands deployed snapshots. The byte comparison
// is an array round trip with no float math, so it is
// architecture-stable.
func TestGoldenSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "golden-v3.oct")
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, m, err := Map(path, MapOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if st := m.Stats(); st.CopyFallbacks != 0 {
		t.Fatalf("%d arrays of the golden file are misaligned", st.CopyFallbacks)
	}

	// One answer per scenario, identical between the two backings.
	im := func(sys *core.System) any {
		r, err := sys.DiscoverInfluencers([]string{"mining", "data"}, core.DiscoverOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	suggest := func(sys *core.System) any {
		r, err := sys.SuggestKeywords(1, 2, tags.SuggestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	paths := func(sys *core.System) any {
		r, err := sys.InfluencePaths(1, core.PathOptions{Keywords: []string{"learning"}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, q := range map[string]func(*core.System) any{"im": im, "suggest": suggest, "paths": paths} {
		if h, mp := q(heap), q(mapped); !reflect.DeepEqual(h, mp) {
			t.Errorf("%s: heap answer %+v, mapped answer %+v", name, h, mp)
		}
	}

	var again bytes.Buffer
	if err := Write(&again, heap, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("re-saving the golden snapshot produced %d bytes that differ from the %d on disk: the format changed",
			again.Len(), len(golden))
	}
}

// TestGoldenSnapshotRebuilds rebuilds the golden file's system from
// scratch — datagen, models, the OTIM bound arrays, the tags index —
// and requires the second-generation save to reproduce
// testdata/golden-v3.oct byte for byte. Where TestGoldenSnapshot
// freezes the format, this freezes what a build computes: a change to
// how an index pass evaluates that moves a single bit of a stored
// spread fails here. Float
// results may differ in the last bit where multiply-adds fuse, so the
// check runs on amd64, where the file was generated.
func TestGoldenSnapshotRebuilds(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden build bytes were generated on amd64")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-v3.oct"))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := Write(&first, buildSystem(t, 30, 21), 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "first.oct")
	if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := Write(&second, loaded, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), golden) {
		t.Fatalf("rebuilding the golden system saved %d bytes that differ from the %d on disk",
			second.Len(), len(golden))
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.oct")); err == nil {
		t.Fatal("missing file accepted")
	}
}
