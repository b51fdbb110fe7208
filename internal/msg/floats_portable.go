//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package msg

// Big-endian (or unknown) targets: memory order is not wire order, so a
// run is encoded element by element.  `make check-portable` cross-builds
// this file so it cannot rot.

// PutFloat64s stores vals at byte offset off of a wire buffer — len(vals)
// consecutive PutFloat64 slots.
func PutFloat64s(buf []byte, off int, vals []float64) {
	for i, v := range vals {
		PutFloat64(buf, off+8*i, v)
	}
}

// GetFloat64s fills dst from the len(dst) wire slots at byte offset off —
// the bulk counterpart of GetFloat64.
func GetFloat64s(dst []float64, buf []byte, off int) {
	for i := range dst {
		dst[i] = GetFloat64(buf, off+8*i)
	}
}

// byteViews reports that a float64 run's memory is not its wire encoding
// here: a Window packs what it sends (appendRuns).
const byteViews = false

// float64Bytes is never called where byteViews is false.
func float64Bytes([]float64) []byte { panic("msg: no byte view of float64 memory on this target") }
