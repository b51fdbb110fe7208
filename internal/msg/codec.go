package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Wire encodings for the element and header types the runtime exchanges.
// All integers are little-endian.  These are deliberately simple: the
// point is that both transports move real bytes, so Stats byte counts
// reflect true message sizes (8 bytes per REAL*8 element, as on the
// machines the paper targeted).

// EncodeFloat64s encodes a []float64 payload.
func EncodeFloat64s(vals []float64) []byte {
	return AppendFloat64s(nil, vals)
}

// AppendFloat64s appends the wire encoding of vals to buf and returns the
// extended slice.  With a caller-retained buf of sufficient capacity the
// encode allocates nothing — the hot-path form the data-movement layer
// uses for reusable per-peer send buffers.
func AppendFloat64s(buf []byte, vals []float64) []byte {
	var off int
	buf, off = GrowFloat64s(buf, len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[off+8*i:], math.Float64bits(v))
	}
	return buf
}

// GrowFloat64s extends buf with room for n float64 wire slots (contents
// unspecified — callers must write every slot) and returns the extended
// slice plus the byte offset where the new region starts.  Growth is
// append's, reusing buf's capacity when available, so steady-state
// callers that recycle buffers pay no allocation.
func GrowFloat64s(buf []byte, n int) ([]byte, int) {
	off := len(buf)
	return slices.Grow(buf, 8*n)[:off+8*n], off
}

// PutFloat64 stores v at byte offset off of a wire buffer.
func PutFloat64(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
}

// GetFloat64 reads the float64 at byte offset off of a wire buffer.
func GetFloat64(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

// Float64Count returns the number of float64 values in a wire payload,
// panicking on misaligned lengths (a framing bug, not a data error).
func Float64Count(buf []byte) int {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: float64 payload length %d not a multiple of 8", len(buf)))
	}
	return len(buf) / 8
}

// DecodeFloat64s decodes a []float64 payload.
func DecodeFloat64s(buf []byte) []float64 {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: float64 payload length %d not a multiple of 8", len(buf)))
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out
}

// DecodeFloat64sInto decodes into dst, which must have exactly the right
// length; it avoids an allocation on hot paths.
func DecodeFloat64sInto(dst []float64, buf []byte) {
	if len(buf) != 8*len(dst) {
		panic(fmt.Sprintf("msg: payload %d bytes, want %d", len(buf), 8*len(dst)))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// EncodeInts encodes a []int payload as int64s.
func EncodeInts(vals []int) []byte { return AppendInts(make([]byte, 0, 8*len(vals)), vals) }

// AppendInts appends EncodeInts(vals) to buf, growing it at most once.
func AppendInts(buf []byte, vals []int) []byte {
	buf = slices.Grow(buf, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	return buf
}

// DecodeInts decodes a payload written by EncodeInts.
func DecodeInts(buf []byte) []int {
	return DecodeIntsInto(make([]int, 0, len(buf)/8), buf)
}

// DecodeIntsInto is DecodeInts into dst's storage, grown only when it
// lacks room.
func DecodeIntsInto(dst []int, buf []byte) []int {
	if len(buf)%8 != 0 {
		panic(fmt.Sprintf("msg: int64 payload length %d not a multiple of 8", len(buf)))
	}
	dst = slices.Grow(dst[:0], len(buf)/8)[:len(buf)/8]
	for i := range dst {
		dst[i] = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return dst
}

// PutUint32 / GetUint32 are header helpers for framed transports.
func PutUint32(buf []byte, off int, v uint32) {
	binary.LittleEndian.PutUint32(buf[off:], v)
}

// GetUint32 reads a little-endian uint32 at off.
func GetUint32(buf []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(buf[off:])
}
