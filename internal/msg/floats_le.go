//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package msg

import "unsafe"

// The wire format is little-endian IEEE 754, which on these targets is
// also the memory format of a []float64: a contiguous run moves between
// the two with one copy.  floats_portable.go is the fallback for every
// other target and the definition both must agree with.

// float64Bytes views vals' memory as wire bytes.  The view aliases vals;
// it is only ever the source or destination of a copy and never outlives
// the call (a []float64 is 8-aligned, so the byte view is always valid —
// the reverse view would not be, and is never taken).
func float64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// PutFloat64s stores vals at byte offset off of a wire buffer — len(vals)
// consecutive PutFloat64 slots written with a single copy.
func PutFloat64s(buf []byte, off int, vals []float64) {
	if n := copy(buf[off:], float64Bytes(vals)); n != 8*len(vals) {
		panic("msg: wire buffer too short for float64 run")
	}
}

// GetFloat64s fills dst from the len(dst) wire slots at byte offset off —
// the bulk counterpart of GetFloat64.
func GetFloat64s(dst []float64, buf []byte, off int) {
	if n := copy(float64Bytes(dst), buf[off:]); n != 8*len(dst) {
		panic("msg: wire buffer too short for float64 run")
	}
}

// byteViews reports that a float64 run's memory is its wire encoding, so
// a Window sends runs straight from storage (appendRuns).
const byteViews = true
