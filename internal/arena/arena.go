// Package arena owns the reading half of the binary codecs and the
// zero-copy story for snapshot serving: the repository's one
// bounds-checked binary Reader over an in-memory byte range, which can
// either copy values onto the Go heap (the default: heap loads, WAL
// records, untrusted input) or alias bulk numeric arrays directly into
// the backing bytes (the serve path over an mmap'd snapshot file),
// plus the refcounted Mapping that keeps the backing bytes alive until
// the last reader releases them.
//
// This package is the ONLY place in the repository allowed to import
// unsafe (enforced by tools/unsafecheck). Everything outside sees
// ordinary Go slices; whether a slice is heap memory or a window into
// a mapped file is decided here and only here. Aliased slices are
// strictly read-only — writing through one would either fault (mapped
// read-only pages) or corrupt the snapshot file for every process
// sharing its page cache.
//
// The wire format is what internal/binio's Writer emits (fixed-width
// little-endian scalars, u32-length-prefixed strings, u64-count-
// prefixed slices, and Align8 padding so bulk arrays start on an
// 8-byte boundary relative to the section payload). Zero-copy aliasing
// engages only when the host is little-endian and the array body is
// 8-aligned; every other case falls back to copying (and is counted),
// so the same decode functions serve both backings.
package arena

import (
	"fmt"
	"unsafe"
)

// MaxLen bounds any single declared string/slice element count a
// Reader will accept. Codecs that read a bare count themselves (to
// size a loop rather than a slice) check it against the same bound.
const MaxLen = 1 << 31

// hostLittleEndian reports whether native byte order matches the wire
// format. On big-endian hosts aliasing is disabled globally and every
// decode copies (with byte swapping done by the scalar readers).
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// LittleEndianHost reports whether the running host can alias
// little-endian wire data in place. False means every Reader copies
// regardless of mode.
func LittleEndianHost() bool { return hostLittleEndian }

// Reader decodes binio-format values from an in-memory byte range with
// sticky errors and exact bounds checking: no call ever reads past
// len(data), and the first failure latches so codecs read as
// straight-line field lists with one error check at the end.
type Reader struct {
	data []byte
	off  int
	err  error
	// zero requests aliasing for bulk arrays. Individual arrays still
	// fall back to copying when misaligned; fallbacks counts those.
	zero      bool
	fallbacks int
}

// NewReader returns a copying Reader over data: every slice read
// allocates on the Go heap, so the result never references data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// NewZeroCopy returns an aliasing Reader over data: bulk numeric
// arrays that land 8-aligned are returned as windows into data itself.
// The caller owns keeping data alive (and unmodified) for as long as
// any decoded slice is reachable — see Mapping.
func NewZeroCopy(data []byte) *Reader { return &Reader{data: data, zero: true} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Remaining returns the bytes left to decode.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// ZeroCopy reports whether this reader aliases bulk arrays. Codecs use
// it as the trust bit: zero-copy input is a snapshot this process (or
// a peer) wrote and CRC-framed, so per-element revalidation loops that
// would fault in every page are skipped in favor of shape checks.
func (r *Reader) ZeroCopy() bool { return r.zero }

// Fallbacks returns how many bulk-array reads wanted to alias but had
// to copy (misaligned body or big-endian host). Surfaced as the
// copy-fallback count in mapping stats.
func (r *Reader) Fallbacks() int { return r.fallbacks }

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// need checks that n more bytes exist, latching an error otherwise.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail(fmt.Errorf("arena: truncated input: need %d bytes at offset %d of %d", n, r.off, len(r.data)))
		return false
	}
	return true
}

// Align8 skips padding up to the next 8-byte boundary. The aligned
// codecs call it before every bulk array; writers emit matching zero
// bytes (binio.Writer.Align8), and any other padding is an error, so a
// payload that decodes re-encodes to the same bytes.
func (r *Reader) Align8() {
	pad := (8 - r.off%8) % 8
	if pad == 0 || !r.need(pad) {
		return
	}
	for _, b := range r.data[r.off : r.off+pad] {
		if b != 0 {
			r.fail(fmt.Errorf("arena: nonzero padding at offset %d", r.off))
			return
		}
	}
	r.off += pad
}

// Skip advances past n bytes without reading them.
func (r *Reader) Skip(n int) {
	if r.need(n) {
		r.off += n
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	b := r.data[r.off:]
	r.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	b := r.data[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	b := r.data[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F32 reads a float32.
func (r *Reader) F32() float32 { return f32frombits(r.U32()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return f64frombits(r.U64()) }

// Str reads a uint32-length-prefixed string. Strings always copy:
// string headers would otherwise pin the mapping invisibly.
func (r *Reader) Str() string {
	n := r.length(uint64(r.U32()), 1)
	if n == 0 || !r.need(n) {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// Strs reads a uint64-count-prefixed []string.
func (r *Reader) Strs() []string {
	n := r.length(r.U64(), 4)
	vs := make([]string, n)
	for i := range vs {
		vs[i] = r.Str()
	}
	return vs
}

// length validates a declared element count of at least width bytes
// each against MaxLen and the bytes actually remaining.
func (r *Reader) length(n uint64, width int) int {
	if r.err == nil && n > MaxLen {
		r.fail(fmt.Errorf("arena: declared length %d exceeds limit", n))
	}
	if r.err == nil && int64(n)*int64(width) > int64(r.Remaining()) {
		r.fail(fmt.Errorf("arena: declared length %d×%dB exceeds remaining input (%dB)",
			n, width, r.Remaining()))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// view returns n elements of size width as a window into data when
// aliasing is possible, advancing the cursor. ok=false leaves the
// cursor untouched for the copying fallback.
func view[T any](r *Reader, n int) (vs []T, ok bool) {
	var zero T
	width := int(unsafe.Sizeof(zero))
	if !r.zero || n == 0 {
		return nil, false
	}
	if !hostLittleEndian || r.off%8 != 0 {
		r.fallbacks++
		return nil, false
	}
	if !r.need(n * width) {
		return nil, false
	}
	vs = unsafe.Slice((*T)(unsafe.Pointer(&r.data[r.off])), n)
	r.off += n * width
	return vs, true
}

// I32s reads a uint64-count-prefixed []int32, aliased when possible.
func (r *Reader) I32s() []int32 {
	n := r.length(r.U64(), 4)
	if vs, ok := view[int32](r, n); ok {
		return vs
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = r.I32()
	}
	return vs
}

// U16s reads a uint64-count-prefixed []uint16, aliased when possible.
func (r *Reader) U16s() []uint16 {
	n := r.length(r.U64(), 2)
	if vs, ok := view[uint16](r, n); ok {
		return vs
	}
	vs := make([]uint16, n)
	for i := range vs {
		vs[i] = r.U16()
	}
	return vs
}

// F32s reads a uint64-count-prefixed []float32, aliased when possible.
func (r *Reader) F32s() []float32 {
	n := r.length(r.U64(), 4)
	if vs, ok := view[float32](r, n); ok {
		return vs
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = r.F32()
	}
	return vs
}

// F64s reads a uint64-count-prefixed []float64, aliased when possible.
func (r *Reader) F64s() []float64 {
	n := r.length(r.U64(), 8)
	if vs, ok := view[float64](r, n); ok {
		return vs
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// Structs reads n records of the fixed-layout POD type T (no pointers,
// no implicit padding, little-endian fields on the wire exactly as in
// memory): aliased into the backing bytes in zero-copy mode, bulk-
// copied onto the heap otherwise. ok=false means the host layout
// cannot adopt the wire layout (big-endian); the caller must then
// decode field-by-field with the scalar readers. The cursor is
// advanced only when ok.
func Structs[T any](r *Reader, n int) (vs []T, ok bool) {
	var zero T
	width := int(unsafe.Sizeof(zero))
	if !hostLittleEndian {
		return nil, false
	}
	if n == 0 {
		return []T{}, true
	}
	if vs, ok = view[T](r, n); ok {
		return vs, true
	}
	if !r.need(n * width) {
		return []T{}, true // sticky error; caller checks r.Err()
	}
	vs = make([]T, n)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), n*width)
	copy(dst, r.data[r.off:r.off+n*width])
	r.off += n * width
	return vs, true
}

// f32frombits / f64frombits avoid importing math just for the bit
// casts (keeps the import list honest about what the package does).
func f32frombits(b uint32) float32 { return *(*float32)(unsafe.Pointer(&b)) }
func f64frombits(b uint64) float64 { return *(*float64)(unsafe.Pointer(&b)) }
