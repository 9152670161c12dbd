// Package binio is the writing half of the binary codecs shared by the
// serializers (graph CSR, TIC model, keyword model, the online indexes
// and the persistence subsystem): a small error-sticky little-endian
// Writer that records the first error and turns every subsequent call
// into a no-op, so codecs read as straight-line field lists with a
// single error check at the end. The reading half is arena.Reader.
//
// All integers are fixed-width little-endian; strings and slices are
// length-prefixed with a uint32/uint64 count.
package binio

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// Writer encodes fixed-width little-endian values with sticky errors.
type Writer struct {
	w   *bufio.Writer
	buf [8]byte
	err error
	pos int64
}

// NewWriter wraps w in a buffered binary writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Align8 emits zero bytes up to the next 8-byte boundary (relative to
// the start of this Writer). Readers skip the same padding with
// arena.Reader.Align8, letting bulk arrays be aliased in place when
// the enclosing section is itself 8-aligned in the file.
func (w *Writer) Align8() {
	var zeros [8]byte
	if pad := int((8 - w.pos%8) % 8); pad != 0 {
		w.write(zeros[:pad])
	}
}

// Flush flushes buffered output and returns the first error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
	if w.err == nil {
		w.pos += int64(len(b))
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// U16 writes a uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I32 writes an int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F32 writes a float32.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// F64 writes a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str writes a uint32-length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
		if w.err == nil {
			w.pos += int64(len(s))
		}
	}
}

// I32s writes a uint64-count-prefixed []int32.
func (w *Writer) I32s(vs []int32) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I32(v)
	}
}

// U16s writes a uint64-count-prefixed []uint16.
func (w *Writer) U16s(vs []uint16) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U16(v)
	}
}

// F32s writes a uint64-count-prefixed []float32.
func (w *Writer) F32s(vs []float32) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.F32(v)
	}
}

// F64s writes a uint64-count-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Strs writes a uint64-count-prefixed []string.
func (w *Writer) Strs(vs []string) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.Str(v)
	}
}
