package kernels

import (
	"math"
	"math/rand"
	"sort"
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

// factorTestData fills a buffer with plain values in (-1, 1) or, with
// specials, with the mix smoothTestData draws: signed zeros, denormals,
// infinities, NaN and values whose products and quotients round.
func factorTestData(rng *rand.Rand, n int, specials bool) []float64 {
	if specials {
		return smoothTestData(rng, n)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// TestFactorSolveBitIdentical is the contract of the batched solver:
// every element of the buffer — padding included — has the bits the
// per-line reference leaves there.  Line counts sit on both sides of the
// row kernels' 4 and of interleave, start is odd and even (so the 16-byte
// lanes are unaligned as often as not), and n reaches down to the lengths
// whose loops run zero times or once.
func TestFactorSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, co := range [][3]float64{{-1, 4, -1}, {-1.25, 4.5, -0.75}} {
		a, b, c := co[0], co[1], co[2]
		for _, n := range []int{0, 1, 2, 3, 5, 7, 64, 257} {
			f := NewFactor(n, a, b, c)
			for _, lines := range []int{0, 1, 3, 4, 5, interleave - 1, interleave, interleave + 1, 2*interleave - 1, 2 * interleave, 2*interleave + 1} {
				for _, lay := range factorLayouts {
					for _, start := range []int{5, 6} {
						for _, specials := range []bool{false, true} {
							stride, lineStride := lay.strides(n, lines)
							got := factorTestData(rng, start+lines*lineStride+n*stride+4, specials)
							want := append([]float64(nil), got...)
							for j := 0; j < lines; j++ {
								TridiagStrided(want, start+j*lineStride, stride, n, a, b, c, nil)
							}
							f.Solve(got, start, stride, lineStride, lines)
							for i := range want {
								if !sameBits(got[i], want[i]) {
									t.Fatalf("coef %v n=%d lines=%d %s start=%d specials=%v: data[%d] = %x want %x",
										co, n, lines, lay.name, start, specials, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// solveSegments is the pipelined solve on one processor's view: the
// lines cut into segments at bounds (0 = bounds[0] <= ... <=
// bounds[len-1] = n, repeats making empty segments), every segment's
// Forward in order and then every Back in reverse, one carry slice
// passed from segment to segment as the pipeline's frames pass it.
func solveSegments(f Factor, data []float64, start, stride, lineStride, lines int, bounds []int) {
	carry := make([]float64, max(lines, 0))
	for s := 0; s+1 < len(bounds); s++ {
		g0 := bounds[s]
		f.Forward(data, start+g0*stride, stride, lineStride, lines, g0, bounds[s+1]-g0, carry)
	}
	for s := len(bounds) - 2; s >= 0; s-- {
		g0 := bounds[s]
		f.Back(data, start+g0*stride, stride, lineStride, lines, g0, bounds[s+1]-g0, carry)
	}
}

// randomCuts splits n rows into 1..maxSeg segments at random cuts,
// repeats (empty segments) included.
func randomCuts(rng *rand.Rand, n, maxSeg int) []int {
	k := 1 + rng.Intn(maxSeg)
	bounds := []int{0}
	for s := 1; s < k; s++ {
		bounds = append(bounds, rng.Intn(n+1))
	}
	sort.Ints(bounds)
	return append(bounds, n)
}

// TestSegmentSweepsBitIdentical: the chained segment sweeps of the
// static ADI's pipeline leave every element of the buffer — padding
// included — with the bits the per-line reference leaves there, however
// the lines are cut into 1..P segments, empty ones at either end or in
// the middle included, for lines side by side (the row kernels) and
// strided ones.
func TestSegmentSweepsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const maxSeg = 5
	for _, co := range [][3]float64{{-1, 4, -1}, {-1.25, 4.5, -0.75}} {
		a, b, c := co[0], co[1], co[2]
		for _, n := range []int{1, 2, 3, 7, 40, 257} {
			f := NewFactor(n, a, b, c)
			cutsets := [][]int{{0, n}, {0, 0, n}, {0, n, n}, {0, n / 2, n / 2, n}}
			for range 12 {
				cutsets = append(cutsets, randomCuts(rng, n, maxSeg))
			}
			for _, lines := range []int{1, 3, 4, 5, 2*interleave + 1} {
				for _, lay := range factorLayouts {
					for _, bounds := range cutsets {
						stride, lineStride := lay.strides(n, lines)
						got := factorTestData(rng, 5+lines*lineStride+n*stride+4, rng.Intn(2) == 0)
						want := append([]float64(nil), got...)
						for j := 0; j < lines; j++ {
							TridiagStrided(want, 5+j*lineStride, stride, n, a, b, c, nil)
						}
						solveSegments(f, got, 5, stride, lineStride, lines, bounds)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("coef %v n=%d lines=%d %s cuts %v: data[%d] = %x want %x",
									co, n, lines, lay.name, bounds, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestSegmentSweepRowsOutsideSystem: a segment that reaches outside the
// factored system's rows panics before it writes anything.
func TestSegmentSweepRowsOutsideSystem(t *testing.T) {
	f := NewFactor(8, -1, 4, -1)
	data := sentinels(64)
	carry := make([]float64, 2)
	for _, r := range [][2]int{{-1, 2}, {7, 2}, {0, 9}, {3, -1}} {
		if !panics(func() { f.Forward(data, 0, 1, 8, 2, r[0], r[1], carry) }) ||
			!panics(func() { f.Back(data, 0, 1, 8, 2, r[0], r[1], carry) }) {
			t.Errorf("rows [%d, %d): no panic", r[0], r[0]+r[1])
		}
	}
	for i, v := range data {
		if v != smoothSentinel {
			t.Fatalf("a panicking segment sweep wrote data[%d]", i)
		}
	}
}

// TestFactorSolvePanicsOutOfRange: the bounds are hoisted, not dropped.
// A line that leaves the slice panics in every layout — also when the
// slice has capacity to spare — and nothing past its length is written.
func TestFactorSolvePanicsOutOfRange(t *testing.T) {
	const n, lines = 9, 2*interleave + 1
	f := NewFactor(n, -1, 4, -1)
	for _, lay := range factorLayouts {
		stride, lineStride := lay.strides(n, lines)
		need := (lines-1)*lineStride + (n-1)*stride + 1
		backing := sentinels(need + 64)
		for name, call := range map[string]func(){
			"short buffer":              func() { f.Solve(backing[:need/2], 0, stride, lineStride, lines) },
			"last line one short":       func() { f.Solve(backing[:need-1], 0, stride, lineStride, lines) },
			"last full group one short": func() { f.Solve(backing[:need-lineStride-1], 0, stride, lineStride, lines-1) },
			"negative start":            func() { f.Solve(backing[:need], -1, stride, lineStride, lines) },
		} {
			if !panics(call) {
				t.Errorf("%s, %s: no panic", lay.name, name)
			}
		}
		for i := need; i < len(backing); i++ {
			if backing[i] != smoothSentinel {
				t.Fatalf("%s: wrote backing[%d], past every slice passed", lay.name, i)
			}
		}
		if panics(func() { f.Solve(backing[:need], 0, stride, lineStride, lines) }) {
			t.Errorf("%s: exact-fit buffer panicked", lay.name)
		}
	}
	// Nothing to do is nothing checked.
	out := sentinels(4)
	f.Solve(out, -7, 1, 1<<40, 0)
	f.Solve(out, -7, 1<<40, 1, -3)
	NewFactor(0, -1, 4, -1).Solve(out, -7, 1, 1<<40, 5)
	for i, v := range out {
		if v != smoothSentinel {
			t.Errorf("a no-op Solve wrote data[%d]", i)
		}
	}
}

// FuzzFactorSolve drives Solve, the segment sweeps over a random split
// and the per-line reference over arbitrary geometry with disjoint
// lines, in range or not: they panic on the same layouts and agree bit
// for bit on the rest.
func FuzzFactorSolve(f *testing.F) {
	f.Add(0, 0, 0, 0, int64(0))
	f.Add(1, 1, 1, 1, int64(1))
	f.Add(7, 9, 1, 7, int64(2))     // contiguous lines back to back: one group and a tail
	f.Add(33, 17, 1, 40, int64(3))  // two groups and a tail, padded
	f.Add(5, 16, 1, -5, int64(4))   // lines laid out backwards
	f.Add(12, 7, 7, 1, int64(5))    // side by side: one 4-wide pass and a tail of 3
	f.Add(3, 22, 25, 1, int64(6))   // side by side, padded rows
	f.Add(9, 6, -6, 1, int64(7))    // rows laid out backwards
	f.Add(6, 5, 3, 19, int64(8))    // neither stride is 1
	f.Add(20, 24, 1, 20, int64(9))  // buffer cut short (seed is odd)
	f.Add(20, 24, 24, 1, int64(11)) // the same, side by side
	f.Fuzz(func(t *testing.T, n, lines, stride, lineStride int, seed int64) {
		n, lines, stride, lineStride = abs(n%40), lines%40, stride%50, lineStride%50
		// Disjoint lines: each line's span fits inside a line stride, or
		// each row of elements fits inside an element stride.
		if (n > 1 && stride == 0) || (lines > 1 && lineStride == 0) ||
			(n > 0 && lines > 0 && abs(lineStride) < (n-1)*abs(stride)+1 && abs(stride) < (lines-1)*abs(lineStride)+1) {
			t.Skip("overlapping lines")
		}
		a, b, c := -1.25, 4.5, -0.75
		// Place the block so that its lowest element is index 3.
		lo := min(0, (n-1)*stride) + min(0, (lines-1)*lineStride)
		hi := max(0, (n-1)*stride) + max(0, (lines-1)*lineStride)
		start := 3 - lo
		rng := rand.New(rand.NewSource(seed))
		got := factorTestData(rng, start+hi+1+3, seed%4 >= 2)
		if seed%2 != 0 && n > 0 && lines > 0 {
			got = got[:len(got)-4-rng.Intn(len(got)-3)]
		}
		want := append([]float64(nil), got...)
		seg := append([]float64(nil), got...)
		pg := panics(func() { NewFactor(n, a, b, c).Solve(got, start, stride, lineStride, lines) })
		pw := panics(func() {
			for j := 0; j < lines; j++ {
				TridiagStrided(want, start+j*lineStride, stride, n, a, b, c, nil)
			}
		})
		// The same lines cut at random into segments, swept as the
		// pipeline sweeps them.
		bounds := randomCuts(rng, n, 5)
		ps := panics(func() { solveSegments(NewFactor(n, a, b, c), seg, start, stride, lineStride, lines, bounds) })
		if pg != pw || ps != pw {
			t.Fatalf("n=%d lines=%d stride=%d lineStride=%d len=%d cuts %v: Solve panicked = %v, segments = %v, reference = %v",
				n, lines, stride, lineStride, len(got), bounds, pg, ps, pw)
		}
		if pg {
			return
		}
		for i := range want {
			if !sameBits(got[i], want[i]) || !sameBits(seg[i], want[i]) {
				t.Fatalf("n=%d lines=%d stride=%d lineStride=%d cuts %v: data[%d] = %v (Solve), %v (segments), reference %v",
					n, lines, stride, lineStride, bounds, i, got[i], seg[i], want[i])
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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

// factorSolveGo is Solve's two batched paths with the portable loops as
// the whole kernel, whatever the build.
func factorSolveGo(f Factor, data []float64, start, stride, lineStride, lines int) {
	n := len(f.bp)
	if lineStride != 1 {
		for j := 0; j < lines; j += interleave {
			f.solveLanesGo(data, start+j*lineStride, lineStride)
		}
		return
	}
	row := func(i int) []float64 { return data[start+i*stride:][:lines] }
	prev := row(0)
	for i := 1; i < n; i++ {
		cur := row(i)
		rowFwdGo(cur, prev, f.m[i])
		prev = cur
	}
	for j := range prev {
		prev[j] /= f.bp[n-1]
	}
	for i := n - 2; i >= 0; i-- {
		cur := row(i)
		rowBackGo(cur, prev, f.c, f.bp[i])
		prev = cur
	}
}

// BenchmarkFactorSolveGo is the portable loops alone on the same block:
// what every GOARCH but amd64, and -race, run.
func BenchmarkFactorSolveGo(b *testing.B) {
	for _, lay := range benchLayouts {
		b.Run(lay.name, func(b *testing.B) {
			f := NewFactor(benchN, -1, 4, -1)
			benchSweep(b, func(data []float64) {
				factorSolveGo(f, data, 0, lay.stride, lay.lineStride, benchLines)
			})
		})
	}
}
