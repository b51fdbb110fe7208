package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// factorLayouts place lines lines of n elements in a buffer, element i of
// line j at start + j*lineStride + i*stride, with padding between them.
var factorLayouts = []struct {
	name    string
	strides func(n, lines int) (stride, lineStride int)
}{
	{"stride1", func(n, lines int) (int, int) { return 1, n + 3 }},
	{"lineStride1", func(n, lines int) (int, int) { return lines + 2, 1 }},
	{"general", func(n, lines int) (int, int) { return 3, 3*n + 1 }},
}

// TestFactorSolveBitIdentical is the contract of the batched solver:
// every element of the buffer — padding included — has the bits the
// per-line reference leaves there.
func TestFactorSolveBitIdentical(t *testing.T) {
	const start = 5
	rng := rand.New(rand.NewSource(7))
	for _, co := range [][3]float64{{-1, 4, -1}, {-1.25, 4.5, -0.75}} {
		a, b, c := co[0], co[1], co[2]
		for _, n := range []int{0, 1, 2, 3, 7, 64, 257} {
			f := NewFactor(n, a, b, c)
			for _, lines := range []int{0, 1, 3, 4, 5, 8, 9, 17} {
				for _, lay := range factorLayouts {
					stride, lineStride := lay.strides(n, lines)
					got := make([]float64, start+lines*lineStride+n*stride+4)
					for i := range got {
						got[i] = rng.Float64()*2 - 1
					}
					want := append([]float64(nil), got...)
					for j := 0; j < lines; j++ {
						TridiagStrided(want, start+j*lineStride, stride, n, a, b, c, nil)
					}
					f.Solve(got, start, stride, lineStride, lines)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("coef %v n=%d lines=%d %s: data[%d] = %x want %x",
								co, n, lines, lay.name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

func TestFactorSolveAllocatesNothing(t *testing.T) {
	const n, lines = 64, 9
	f := NewFactor(n, -1, 4, -1)
	data := make([]float64, n*lines)
	for _, lay := range [][2]int{{1, n}, {lines, 1}} {
		if got := testing.AllocsPerRun(10, func() { f.Solve(data, 0, lay[0], lay[1], lines) }); got != 0 {
			t.Fatalf("stride %d lineStride %d: %v allocs per Solve, want 0", lay[0], lay[1], got)
		}
	}
}

// The benchmarks sweep one rank's block of the spine's ADI grid (the
// block bench/probes.go times): 256 lines of 1024 elements, contiguous
// (x-sweep) and side by side (y-sweep).
const benchN, benchLines = 1024, 256

var benchLayouts = []struct {
	name               string
	stride, lineStride int
}{
	{"stride1", 1, benchN},
	{"lineStride1", benchLines, 1},
}

// benchSweep times sweep over the block; the refill (untimed) keeps
// repeated solves from decaying the data into denormals.
func benchSweep(b *testing.B, sweep func(data []float64)) {
	data := make([]float64, benchN*benchLines)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		for i := range data {
			data[i] = float64(i%13) - 6
		}
		b.StartTimer()
		sweep(data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchN*benchLines), "ns/elem")
}

func BenchmarkTridiagStrided(b *testing.B) {
	for _, lay := range benchLayouts {
		b.Run(lay.name, func(b *testing.B) {
			scratch := make([]float64, benchN)
			benchSweep(b, func(data []float64) {
				for j := 0; j < benchLines; j++ {
					TridiagStrided(data, j*lay.lineStride, lay.stride, benchN, -1, 4, -1, scratch)
				}
			})
		})
	}
}

func BenchmarkFactorSolve(b *testing.B) {
	for _, lay := range benchLayouts {
		b.Run(lay.name, func(b *testing.B) {
			f := NewFactor(benchN, -1, 4, -1)
			benchSweep(b, func(data []float64) {
				f.Solve(data, 0, lay.stride, lay.lineStride, benchLines)
			})
		})
	}
}
