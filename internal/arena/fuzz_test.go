package arena

import (
	"testing"

	"octopus/internal/binio"
)

// bothModes runs fn over a copying and an aliasing Reader on data.
func bothModes(data []byte, fn func(mode string, r *Reader)) {
	fn("copy", NewReader(data))
	fn("zero", NewZeroCopy(data))
}

// FuzzReader drives every Reader method over arbitrary input, in both
// modes. The contract under fuzz: never panic, never hand back more
// elements than the input could hold, and stay sticky — after the first
// error every later call is a zero-value no-op and Err() keeps
// returning the same error.
func FuzzReader(f *testing.F) {
	// A fully valid stream covering every codec method, produced by the
	// Writer itself.
	valid := encode(func(w *binio.Writer) {
		w.U8(7)
		w.U16(513)
		w.U32(1 << 20)
		w.U64(1 << 40)
		w.I32(-5)
		w.I64(-1 << 33)
		w.F32(1.5)
		w.F64(-2.25)
		w.Str("hello")
		w.Align8()
		w.I32s([]int32{1, -2, 3})
		w.Align8()
		w.U16s([]uint16{9, 8})
		w.Align8()
		w.F32s([]float32{0.5})
		w.Align8()
		w.F64s([]float64{1e9, -1e-9})
		w.Strs([]string{"a", "bc", ""})
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	// A declared length far beyond the input: must be rejected before
	// allocation, not satisfied.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		bothModes(data, func(mode string, r *Reader) {
			_ = r.U8()
			_ = r.U16()
			_ = r.U32()
			_ = r.U64()
			_ = r.I32()
			_ = r.I64()
			_ = r.F32()
			_ = r.F64()
			checkBounded(t, mode, len(data), len(r.Str()), 1)
			r.Align8()
			checkBounded(t, mode, len(data), len(r.I32s()), 4)
			r.Align8()
			checkBounded(t, mode, len(data), len(r.U16s()), 2)
			r.Align8()
			checkBounded(t, mode, len(data), len(r.F32s()), 4)
			r.Align8()
			checkBounded(t, mode, len(data), len(r.F64s()), 8)
			checkBounded(t, mode, len(data), len(r.Strs()), 4)
			// Exhaust the input; the error must become sticky.
			for i := 0; i < 4; i++ {
				_ = r.Strs()
				_ = r.U64()
			}
			first := r.Err()
			if first == nil {
				return
			}
			if v := r.U64(); v != 0 {
				t.Fatalf("%s: read after error returned %d, want zero value", mode, v)
			}
			if s := r.Str(); s != "" {
				t.Fatalf("%s: Str after error returned %q, want empty", mode, s)
			}
			if vs := r.F64s(); len(vs) != 0 {
				t.Fatalf("%s: F64s after error returned %d elements", mode, len(vs))
			}
			if again := r.Err(); again != first {
				t.Fatalf("%s: error not sticky: %v then %v", mode, first, again)
			}
		})
	})
}

// checkBounded asserts a decoded slice could actually have come from
// the input: n elements of the given width never exceed the input size.
func checkBounded(t *testing.T, mode string, inputLen, n, width int) {
	t.Helper()
	if n*width > inputLen {
		t.Fatalf("%s: decoded %d elements × %dB from %dB of input", mode, n, width, inputLen)
	}
}

// FuzzReaderWriterRoundTrip: anything the Writer produces from
// fuzz-chosen values must decode back exactly, in both modes.
func FuzzReaderWriterRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint32(2), int64(-3), 4.5, "six")
	f.Add(uint8(0), uint32(0), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, a uint8, b uint32, c int64, d float64, s string) {
		data := encode(func(w *binio.Writer) {
			w.U8(a)
			w.U32(b)
			w.I64(c)
			w.F64(d)
			w.Str(s)
			w.Strs([]string{s, s + "x"})
			w.Align8()
			w.F64s([]float64{d, d})
		})
		bothModes(data, func(mode string, r *Reader) {
			if got := r.U8(); got != a {
				t.Fatalf("%s: U8 = %d, want %d", mode, got, a)
			}
			if got := r.U32(); got != b {
				t.Fatalf("%s: U32 = %d, want %d", mode, got, b)
			}
			if got := r.I64(); got != c {
				t.Fatalf("%s: I64 = %d, want %d", mode, got, c)
			}
			if got := r.F64(); got != d && !(d != d && got != got) { // NaN-safe
				t.Fatalf("%s: F64 = %v, want %v", mode, got, d)
			}
			if got := r.Str(); got != s {
				t.Fatalf("%s: Str = %q, want %q", mode, got, s)
			}
			ss := r.Strs()
			if len(ss) != 2 || ss[0] != s || ss[1] != s+"x" {
				t.Fatalf("%s: Strs = %q", mode, ss)
			}
			r.Align8()
			ds := r.F64s()
			if len(ds) != 2 || (ds[0] != d && d == d) || (ds[1] != d && d == d) {
				t.Fatalf("%s: F64s = %v, want two of %v", mode, ds, d)
			}
			if err := r.Err(); err != nil {
				t.Fatalf("%s: round trip error: %v", mode, err)
			}
			if r.Remaining() != 0 {
				t.Fatalf("%s: %d bytes left over", mode, r.Remaining())
			}
		})
	})
}
