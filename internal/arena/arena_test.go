package arena

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"octopus/internal/binio"
)

// encode renders a binio stream for the reader tests.
func encode(fn func(w *binio.Writer)) []byte {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	fn(w)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestReaderMatchesBinio(t *testing.T) {
	data := encode(func(w *binio.Writer) {
		w.U8(7)
		w.U16(0x1234)
		w.U32(0xdeadbeef)
		w.U64(1 << 40)
		w.I32(-5)
		w.I64(-6)
		w.F32(1.5)
		w.F64(-2.25)
		w.Str("hello")
		w.Strs([]string{"a", "bb", ""})
		w.Align8()
		w.I32s([]int32{1, -2, 3})
		w.Align8()
		w.U16s([]uint16{9, 10})
		w.Align8()
		w.F32s([]float32{0.5})
		w.Align8()
		w.F64s([]float64{3.5, -4.5})
	})
	for _, mode := range []string{"copy", "zero"} {
		r := NewReader(data)
		if mode == "zero" {
			r = NewZeroCopy(data)
		}
		if got := r.U8(); got != 7 {
			t.Fatalf("%s U8 = %d", mode, got)
		}
		if got := r.U16(); got != 0x1234 {
			t.Fatalf("%s U16 = %#x", mode, got)
		}
		if got := r.U32(); got != 0xdeadbeef {
			t.Fatalf("%s U32 = %#x", mode, got)
		}
		if got := r.U64(); got != 1<<40 {
			t.Fatalf("%s U64 = %d", mode, got)
		}
		if got := r.I32(); got != -5 {
			t.Fatalf("%s I32 = %d", mode, got)
		}
		if got := r.I64(); got != -6 {
			t.Fatalf("%s I64 = %d", mode, got)
		}
		if got := r.F32(); got != 1.5 {
			t.Fatalf("%s F32 = %v", mode, got)
		}
		if got := r.F64(); got != -2.25 {
			t.Fatalf("%s F64 = %v", mode, got)
		}
		if got := r.Str(); got != "hello" {
			t.Fatalf("%s Str = %q", mode, got)
		}
		ss := r.Strs()
		if len(ss) != 3 || ss[0] != "a" || ss[1] != "bb" || ss[2] != "" {
			t.Fatalf("%s Strs = %v", mode, ss)
		}
		r.Align8()
		is := r.I32s()
		if len(is) != 3 || is[0] != 1 || is[1] != -2 || is[2] != 3 {
			t.Fatalf("%s I32s = %v", mode, is)
		}
		r.Align8()
		us := r.U16s()
		if len(us) != 2 || us[0] != 9 || us[1] != 10 {
			t.Fatalf("%s U16s = %v", mode, us)
		}
		r.Align8()
		fs := r.F32s()
		if len(fs) != 1 || fs[0] != 0.5 {
			t.Fatalf("%s F32s = %v", mode, fs)
		}
		r.Align8()
		ds := r.F64s()
		if len(ds) != 2 || ds[0] != 3.5 || ds[1] != -4.5 {
			t.Fatalf("%s F64s = %v", mode, ds)
		}
		if r.Err() != nil {
			t.Fatalf("%s err: %v", mode, r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%s remaining = %d", mode, r.Remaining())
		}
	}
}

// TestZeroCopyAliases proves the whole point of the package: a bulk
// array read in zero-copy mode shares memory with the input.
func TestZeroCopyAliases(t *testing.T) {
	if !LittleEndianHost() {
		t.Skip("zero-copy disabled on big-endian hosts")
	}
	data := encode(func(w *binio.Writer) {
		w.Align8()
		w.I32s([]int32{10, 20, 30})
	})
	r := NewZeroCopy(data)
	r.Align8()
	vs := r.I32s()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	data[8] = 0xff // first element's low byte (after the u64 count)
	if vs[0] == 10 {
		t.Fatal("zero-copy I32s copied instead of aliasing")
	}
	if r.Fallbacks() != 0 {
		t.Fatalf("fallbacks = %d", r.Fallbacks())
	}

	// A misaligned body must fall back to copying — and count it.
	mis := append([]byte{0}, encode(func(w *binio.Writer) {
		w.I32s([]int32{1, 2})
	})...)
	r2 := NewZeroCopy(mis)
	r2.U8()
	vs2 := r2.I32s()
	if r2.Err() != nil {
		t.Fatal(r2.Err())
	}
	mis[len(mis)-1] ^= 0xff
	if vs2[1] != 2 {
		t.Fatal("misaligned read aliased instead of copying")
	}
	if r2.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d", r2.Fallbacks())
	}
}

func TestCopyModeNeverAliases(t *testing.T) {
	data := encode(func(w *binio.Writer) {
		w.Align8()
		w.F64s([]float64{1, 2})
	})
	r := NewReader(data)
	r.Align8()
	vs := r.F64s()
	data[8] ^= 0xff
	if vs[0] != 1 {
		t.Fatal("copy-mode F64s aliased the input")
	}
}

func TestReaderTruncation(t *testing.T) {
	data := encode(func(w *binio.Writer) {
		w.I32s(make([]int32, 100))
	})
	for cut := 0; cut < len(data); cut += 7 {
		r := NewZeroCopy(data[:cut])
		r.Align8()
		_ = r.I32s()
		if r.Err() == nil && cut < len(data) {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// A declared length beyond the input must fail before allocating.
	huge := encode(func(w *binio.Writer) { w.U64(1 << 40) })
	r := NewReader(huge)
	_ = r.F64s()
	if r.Err() == nil {
		t.Fatal("oversized declared length accepted")
	}
}

type rec struct {
	A, B int32
	C    float32
	D    int32
}

func TestStructs(t *testing.T) {
	if !LittleEndianHost() {
		t.Skip("Structs unavailable on big-endian hosts")
	}
	data := encode(func(w *binio.Writer) {
		w.Align8()
		for i := int32(0); i < 3; i++ {
			w.I32(i)
			w.I32(i * 10)
			w.F32(float32(i) / 2)
			w.I32(-i)
		}
	})
	for _, mode := range []string{"copy", "zero"} {
		r := NewReader(data)
		if mode == "zero" {
			r = NewZeroCopy(data)
		}
		r.Align8()
		vs, ok := Structs[rec](r, 3)
		if !ok || r.Err() != nil {
			t.Fatalf("%s: ok=%v err=%v", mode, ok, r.Err())
		}
		for i := int32(0); i < 3; i++ {
			got := vs[i]
			if got.A != i || got.B != i*10 || got.C != float32(i)/2 || got.D != -i {
				t.Fatalf("%s: rec[%d] = %+v", mode, i, got)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%s: remaining = %d", mode, r.Remaining())
		}
	}
	// Truncated input fails cleanly.
	r := NewZeroCopy(data[:10])
	r.Align8()
	_, _ = Structs[rec](r, 3)
	if r.Err() == nil {
		t.Fatal("truncated Structs accepted")
	}
}

func TestMappingLifecycle(t *testing.T) {
	m := NewHeapMapping([]byte{1, 2, 3})
	if m.Refs() != 1 || m.Len() != 3 || m.Mapped() {
		t.Fatalf("fresh mapping: refs=%d len=%d mapped=%v", m.Refs(), m.Len(), m.Mapped())
	}
	m.Retain()
	m.Release()
	if m.Refs() != 1 || m.Bytes() == nil {
		t.Fatal("release with refs outstanding must keep data")
	}
	m.Release()
	if m.Refs() != 0 || m.Bytes() != nil {
		t.Fatal("final release must drop data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final release must panic")
		}
	}()
	m.Retain()
}

func TestMapFile(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported here")
	}
	path := filepath.Join(t.TempDir(), "blob")
	want := bytes.Repeat([]byte{0xab, 0xcd}, 4096)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(f)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mapped() {
		t.Fatal("expected a real mapping")
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("mapped bytes differ from file")
	}
	if res := m.Resident(); res == 0 {
		t.Fatalf("resident = %d after touching every byte", res)
	}
	m.Release()
	if m.Refs() != 0 {
		t.Fatalf("refs = %d after release", m.Refs())
	}
}

// Padding must be the zeros binio.Writer.Align8 writes: a payload that
// decodes then re-encodes to the same bytes.
func TestAlign8RejectsNonzeroPadding(t *testing.T) {
	data := encode(func(w *binio.Writer) {
		w.U8(1)
		w.Align8()
		w.I32s([]int32{10})
	})
	for _, mode := range []func([]byte) *Reader{NewReader, NewZeroCopy} {
		r := mode(data)
		r.U8()
		r.Align8()
		if vs := r.I32s(); r.Err() != nil || len(vs) != 1 || vs[0] != 10 {
			t.Fatalf("zero padding: %v, %v", vs, r.Err())
		}
	}
	data[3] = 1
	for _, mode := range []func([]byte) *Reader{NewReader, NewZeroCopy} {
		r := mode(data)
		r.U8()
		r.Align8()
		if r.Err() == nil {
			t.Fatal("nonzero padding accepted")
		}
	}
}
