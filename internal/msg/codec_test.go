package msg

import (
	"bytes"
	"math"
	"testing"
)

var codecVals = []float64{0, 1.5, -2.25, 1e300, -1e-300, math.Inf(1), math.Inf(-1), 42}

func TestAppendFloat64sMatchesEncode(t *testing.T) {
	want := EncodeFloat64s(codecVals)
	if got := AppendFloat64s(nil, codecVals); !bytes.Equal(got, want) {
		t.Fatalf("AppendFloat64s(nil, ...) != EncodeFloat64s")
	}
	// Appending after a prefix keeps the prefix and places the encoding
	// right behind it.
	prefix := []byte{0xaa, 0xbb, 0xcc}
	got := AppendFloat64s(append([]byte(nil), prefix...), codecVals)
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
		t.Fatalf("append after prefix mangled the buffer")
	}
}

func TestGrowPutGetRoundTrip(t *testing.T) {
	buf, off := GrowFloat64s(nil, len(codecVals))
	if off != 0 || len(buf) != 8*len(codecVals) {
		t.Fatalf("Grow(nil, %d) = len %d off %d", len(codecVals), len(buf), off)
	}
	for i, v := range codecVals {
		PutFloat64(buf, off+8*i, v)
	}
	if n := Float64Count(buf); n != len(codecVals) {
		t.Fatalf("Float64Count = %d, want %d", n, len(codecVals))
	}
	for i, v := range codecVals {
		if got := GetFloat64(buf, 8*i); got != v {
			t.Errorf("slot %d = %v, want %v", i, got, v)
		}
	}
	if !bytes.Equal(buf, EncodeFloat64s(codecVals)) {
		t.Fatal("Put-based encoding differs from EncodeFloat64s")
	}
	// NaN survives as bits even though it compares unequal.
	PutFloat64(buf, 0, math.NaN())
	if !math.IsNaN(GetFloat64(buf, 0)) {
		t.Fatal("NaN did not round-trip")
	}
}

func TestGrowFloat64sReusesCapacity(t *testing.T) {
	buf := make([]byte, 0, 64)
	grown, off := GrowFloat64s(buf, 8)
	if off != 0 || len(grown) != 64 || &grown[0] != &buf[:1][0] {
		t.Fatal("Grow within capacity must reuse the backing array")
	}
	// Growth past capacity must preserve existing contents.
	buf = AppendFloat64s(nil, codecVals[:2])
	grown, off = GrowFloat64s(buf, 1<<10)
	if off != 16 || !bytes.Equal(grown[:16], buf) {
		t.Fatal("Grow past capacity lost the existing prefix")
	}
}

func TestFloat64CountPanicsOnMisalignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Float64Count accepted a misaligned payload")
		}
	}()
	Float64Count(make([]byte, 13))
}

func TestDecodeFloat64sIntoMatchesDecode(t *testing.T) {
	buf := EncodeFloat64s(codecVals)
	want := DecodeFloat64s(buf)
	got := make([]float64, len(codecVals))
	DecodeFloat64sInto(got, buf)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCodecHotPathsAllocationFree pins the zero-allocation contract the
// data-movement layer relies on: with recycled buffers, encode and decode
// allocate nothing.
func TestCodecHotPathsAllocationFree(t *testing.T) {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	buf := make([]byte, 0, 8*len(vals))
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendFloat64s(buf[:0], vals)
	}); n != 0 {
		t.Errorf("AppendFloat64s with capacity: %v allocs/run, want 0", n)
	}
	dst := make([]float64, len(vals))
	if n := testing.AllocsPerRun(100, func() {
		DecodeFloat64sInto(dst, buf)
	}); n != 0 {
		t.Errorf("DecodeFloat64sInto: %v allocs/run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var off int
		buf, off = GrowFloat64s(buf[:0], len(vals))
		for i, v := range vals {
			PutFloat64(buf, off+8*i, v)
		}
		for i := range dst {
			dst[i] = GetFloat64(buf, 8*i)
		}
	}); n != 0 {
		t.Errorf("Grow/Put/Get loop: %v allocs/run, want 0", n)
	}
}

func BenchmarkCodecAppendFloat64s(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := make([]byte, 0, 8*len(vals))
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFloat64s(buf[:0], vals)
	}
}

func BenchmarkCodecDecodeInto(b *testing.B) {
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	buf := EncodeFloat64s(vals)
	dst := make([]float64, len(vals))
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeFloat64sInto(dst, buf)
	}
}

// TestFloat64RunsMatchWireEncoding pins the bulk helpers to the wire
// format on whichever host runs the tests: the little-endian build's
// in-place byte view and the portable per-element loop must both produce
// exactly EncodeFloat64s' bytes (`make check-portable` cross-builds the
// other one).
func TestFloat64RunsMatchWireEncoding(t *testing.T) {
	vals := []float64{1, -2.5, math.Pi}
	want := EncodeFloat64s(vals)
	buf := make([]byte, 8+len(want))
	PutFloat64s(buf, 8, vals)
	if !bytes.Equal(buf[8:], want) {
		t.Fatalf("PutFloat64s wrote % x, wire encoding is % x", buf[8:], want)
	}
	for _, b := range buf[:8] {
		if b != 0 {
			t.Fatalf("PutFloat64s wrote before its offset: % x", buf[:8])
		}
	}
	got := make([]float64, len(vals))
	GetFloat64s(got, buf, 8)
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("GetFloat64s[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PutFloat64s into a short buffer did not panic")
		}
	}()
	PutFloat64s(make([]byte, 23), 0, vals)
}
