package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"octopus/internal/core"
	"octopus/internal/datagen"
)

// tinySnapshotBytes encodes a minimal but complete system snapshot —
// the honest-input seed for the decoder fuzz targets.
func tinySnapshotBytes(f *testing.F) []byte {
	ds, err := datagen.Citation(datagen.CitationConfig{Authors: 40, Topics: 2, Papers: 60, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.Build(ds.Graph, ds.Log, core.Config{
		GroundTruth:      ds.Truth,
		GroundTruthWords: ds.TruthWords,
		Seed:             5,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, sys, 1); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotReadParts: the snapshot decoder must never panic —
// corrupt, truncated, bit-flipped or adversarial input is answered with
// an error, and a success yields structurally consistent parts. The
// two checked-in OCTSNAP1 seeds predate the single format generation;
// they now exercise the magic rejection.
func FuzzSnapshotReadParts(f *testing.F) {
	snap := tinySnapshotBytes(f)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:9])
	f.Add([]byte(snapshotMagic))
	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// A section header declaring an enormous payload.
	huge := append([]byte(nil), []byte(snapshotMagic)...)
	huge = append(huge, 'M', 'E', 'T', 'A')
	huge = binary.LittleEndian.AppendUint64(huge, 1<<62)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadParts(bytes.NewReader(data))
		if err != nil {
			return
		}
		if p == nil || p.Graph == nil || p.Log == nil || p.Prop == nil ||
			p.Words == nil || p.OTIM == nil || p.Tags == nil {
			t.Fatal("ReadParts returned nil parts without an error")
		}
		if p.Prop.NumTopics() != p.Words.NumTopics() {
			t.Fatal("decoded models disagree on topic count")
		}
		// A decodable snapshot must also assemble.
		if _, err := p.Build(); err != nil {
			t.Fatalf("decoded parts failed to assemble: %v", err)
		}
	})
}

// FuzzWALScan: the WAL scanner must never panic and must treat any
// corruption as a torn tail — the reported end offset always lands
// inside the input so truncation is safe.
func FuzzWALScan(f *testing.F) {
	// A valid log with one record of each kind.
	var frame bytes.Buffer
	frame.WriteString(walMagic)
	for _, rec := range []Record{
		{Kind: RecEdge, Src: 1, Dst: 2, DstName: "n", Probs: []float64{0.5, 0.25}},
		{Kind: RecItem, ItemID: 9, Keywords: []string{"fuzz", "wal"}},
		{Kind: RecAction, User: 3, Item: 9, Time: 77},
	} {
		var body bytes.Buffer
		if err := encodeRecord(&body, &rec); err != nil {
			f.Fatal(err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
		frame.Write(hdr[:])
		frame.Write(body.Bytes())
		binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(body.Bytes(), crcTable))
		frame.Write(hdr[:])
	}
	valid := frame.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte(walMagic))
	f.Add([]byte("OCTWAL99"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-6] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		n, end, err := scanWAL(bytes.NewReader(data), func(r *Record) error {
			if r == nil {
				t.Fatal("scanWAL delivered a nil record")
			}
			switch r.Kind {
			case RecEdge, RecItem, RecAction:
			default:
				t.Fatalf("scanWAL delivered unknown kind %d", r.Kind)
			}
			return nil
		})
		if err != nil {
			return // bad header — rejected before any replay
		}
		if n < 0 || end < int64(len(walMagic)) || end > int64(len(data)) {
			t.Fatalf("scan reported n=%d end=%d for %dB input", n, end, len(data))
		}
	})
}

// FuzzWALRecordDecode: record bodies straight from the fuzzer. A decode
// must never panic, and a successful decode must survive an
// encode/decode round trip unchanged (replay determinism).
func FuzzWALRecordDecode(f *testing.F) {
	for _, rec := range []Record{
		{Kind: RecEdge, Src: 0, Dst: 1, SrcName: "a", DstName: "b", Probs: []float64{1}},
		{Kind: RecItem, ItemID: 1, Keywords: []string{"k"}},
		{Kind: RecAction, User: 1, Item: 1, Time: 1},
	} {
		var body bytes.Buffer
		if err := encodeRecord(&body, &rec); err != nil {
			f.Fatal(err)
		}
		f.Add(body.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{99})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := decodeRecord(body)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := encodeRecord(&again, rec); err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		rec2, err := decodeRecord(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		// Compare at the byte level: the codec is bit-exact (NaN payloads
		// included), where reflect.DeepEqual would trip over NaN != NaN.
		var final bytes.Buffer
		if err := encodeRecord(&final, rec2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(again.Bytes(), final.Bytes()) {
			t.Fatalf("round trip changed the record encoding:\n%x\n%x", again.Bytes(), final.Bytes())
		}
	})
}
