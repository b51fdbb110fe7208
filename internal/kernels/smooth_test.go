package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// smoothRowRef is the per-point loop SmoothRow was before its bounds were
// hoisted: the reference for bits and for which spans panic.
func smoothRowRef(dst, src []float64, off, n, rowStride int) {
	for i := off; i < off+n; i++ {
		dst[i] = 0.25 * (src[i-1] + src[i+1] + src[i-rowStride] + src[i+rowStride])
	}
}

// smoothRowGo is SmoothRow with the portable loop as the whole row
// kernel, whatever the build.
func smoothRowGo(dst, src []float64, off, n, rowStride int) {
	smoothSpanGo(dst[off:off+n], src[off-1:off+n+1],
		src[off-rowStride:off-rowStride+n], src[off+rowStride:off+rowStride+n])
}

// smoothSpecials are the values on which a changed operation order, a
// fused operation or a flushed denormal would show: signed zeros,
// denormals, the smallest normal, infinities, NaN, sums that round and
// sums that overflow.
var smoothSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 3e-310, -7e-320, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, 1 + 0x1p-52, -1 + 0x1p-53,
	1e16, 3, 1.0 / 3, 0.1, 0.2, 0.3, math.MaxFloat64, -math.MaxFloat64, 0x1p-1074 * 3,
}

func smoothTestData(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = smoothSpecials[rng.Intn(len(smoothSpecials))]
		} else {
			v[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	return v
}

// sameBits reports whether a and b are the same float64, any NaN equal to
// any other (which operand's payload an add propagates is the
// compiler's choice, not the kernel's).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

const smoothSentinel = -12345.678

func sentinels(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = smoothSentinel
	}
	return v
}

func TestSmoothRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 67; n++ {
		for _, stride := range []int{n + 2, n + 5, 1030} {
			for _, off := range []int{stride + 1, stride + 2} { // odd and even: both 16-byte phases
				src := smoothTestData(rng, off+stride+n+3)
				got, want := sentinels(len(src)), sentinels(len(src))
				SmoothRow(got, src, off, n, stride)
				smoothRowRef(want, src, off, n, stride)
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n=%d off=%d stride=%d: dst[%d] = %x (%v), reference %x (%v)", n, off, stride,
							i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
					}
					if (i < off || i >= off+n) && got[i] != smoothSentinel {
						t.Fatalf("n=%d off=%d stride=%d: dst[%d] outside the span was written", n, off, stride, i)
					}
				}
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestSmoothRowPanicsOutOfRange(t *testing.T) {
	const n, stride = 8, 10
	src := make([]float64, 3*stride)
	dst := make([]float64, 3*stride)
	if panics(func() { SmoothRow(dst, src, stride+1, n, stride) }) {
		t.Fatal("in-range row panicked")
	}
	for name, call := range map[string]func(){
		"off = 0":                    func() { SmoothRow(dst, src, 0, n, stride) },
		"off+rowStride+n > len(src)": func() { SmoothRow(dst, src, stride+3, n, stride+2) },
		"off-rowStride < 0":          func() { SmoothRow(dst, src, stride-1, n, stride) },
		"short dst":                  func() { SmoothRow(dst[:stride+n], src, stride+1, n, stride) },
		"short src inside its cap":   func() { SmoothRow(dst, src[:2*stride+n], stride+1, n, stride) },
	} {
		if !panics(call) {
			t.Errorf("%s: no panic", name)
		}
	}
	// Nothing to do is nothing checked, as with the per-point loop.
	out := sentinels(4)
	for _, n := range []int{0, -3} {
		if panics(func() { SmoothRow(out, src, -7, n, 1<<40) }) {
			t.Errorf("n = %d panicked", n)
		}
	}
	for i, v := range out {
		if v != smoothSentinel {
			t.Errorf("n <= 0 wrote dst[%d]", i)
		}
	}
}

// FuzzSmoothRow drives SmoothRow and the per-point reference over
// arbitrary geometry, in range or not: they panic on the same spans and
// agree bit for bit on the rest.
func FuzzSmoothRow(f *testing.F) {
	f.Add(0, 0, 0, int64(0))
	f.Add(1, 12, 11, int64(1))
	f.Add(4, 1031, 1030, int64(2))
	f.Add(67, 70, 69, int64(3))
	f.Add(63, 200, -100, int64(4)) // rows above and below swapped: still a valid span
	f.Add(40, 30, 31, int64(5))    // off-rowStride < 0
	f.Add(64, 2000, 300, int64(6)) // past the end of src
	f.Add(64, 1100, 5, int64(7))   // short dst, overlapping rows
	f.Fuzz(func(t *testing.T, n, off, stride int, seed int64) {
		n, off, stride = n%80, off%2400, stride%1200
		src := smoothTestData(rand.New(rand.NewSource(seed)), 2300)
		got, want := sentinels(1150), sentinels(1150)
		pg := panics(func() { SmoothRow(got, src, off, n, stride) })
		pw := panics(func() { smoothRowRef(want, src, off, n, stride) })
		if pg != pw {
			t.Fatalf("n=%d off=%d stride=%d: SmoothRow panicked = %v, reference = %v", n, off, stride, pg, pw)
		}
		if pg {
			return
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d off=%d stride=%d: dst[%d] = %v, reference %v", n, off, stride, i, got[i], want[i])
			}
		}
	})
}

// The smoothing benchmarks sweep a 1024-wide block inside its ghost
// margin, as apps.smoothRect does: 64 rows (1 MB of source and
// destination, resident in L2) and the 1024 rows of one rank of the
// spine's smooth_halo grid (16 MB, streamed).  BenchmarkSmoothRow is the
// kernel the build runs, BenchmarkSmoothRowGo the portable loop alone,
// BenchmarkSmoothStreamFloor a copy of the same block — the roofline the
// other two are read against.  The reference box's figures are in the
// Makefile, at bench-kernels.
var smoothBenchShapes = []struct {
	name string
	rows int
}{
	{"l2_1024x64", 64},
	{"block_1024x1024", 1024},
}

const smoothBenchW = 1024

func benchSmooth(b *testing.B, row func(dst, src []float64, off, n, rowStride int)) {
	for _, sh := range smoothBenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			const stride = smoothBenchW + 2
			src := make([]float64, stride*(sh.rows+2))
			dst := make([]float64, len(src))
			for i := range src {
				src[i] = float64(i%13) - 6
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for j := 1; j <= sh.rows; j++ {
					row(dst, src, j*stride+1, smoothBenchW, stride)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(smoothBenchW*sh.rows), "ns/point")
		})
	}
}

func BenchmarkSmoothRow(b *testing.B)   { benchSmooth(b, SmoothRow) }
func BenchmarkSmoothRowGo(b *testing.B) { benchSmooth(b, smoothRowGo) }

func BenchmarkSmoothStreamFloor(b *testing.B) {
	benchSmooth(b, func(dst, src []float64, off, n, _ int) { copy(dst[off:off+n], src[off:off+n]) })
}
