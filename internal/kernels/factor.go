package kernels

// Factor is the forward elimination of one n×n constant-coefficient
// tridiagonal system (the system Tridiag solves), computed once and
// shared by every right-hand side: Fig. 1's TRIDIAG has constant
// coefficients, so all the lines of a sweep have the same factorisation.
//
// Tridiag and TridiagStrided stay as the independent per-line reference.
// Solve is bit-identical to them because every element sees the same
// operations in the same order and the same expression shape — no
// reciprocal-multiply, no re-association, no one-sided float64() casts —
// so a target that fuses multiply-add (arm64, GOAMD64=v3) fuses both or
// neither.  Only the loop order differs.
type Factor struct {
	c  float64
	m  []float64 // m[i] = a / bp[i-1], i >= 1
	bp []float64 // modified diagonal
}

// NewFactor eliminates the system a*x[i-1] + b*x[i] + c*x[i+1] = rhs[i]
// of n unknowns.  The Factor is immutable and costs one allocation.
func NewFactor(n int, a, b, c float64) Factor {
	buf := make([]float64, 2*n)
	f := Factor{c: c, m: buf[:n:n], bp: buf[n:]}
	if n > 0 {
		f.bp[0] = b
	}
	for i := 1; i < n; i++ {
		m := a / f.bp[i-1]
		f.bp[i] = b - m*c
		f.m[i] = m
	}
	return f
}

// interleave is the number of stride-1 lines Solve advances together so
// their dependency chains overlap in the pipeline (solveLanes).  Measured
// on the reference box, ns per element — Go loops: 4 lines 3.5, 8 lines
// 2.7; SSE2 kernel: 8 lines 1.6-1.8 at any line stride, 16 lines 1.27 but
// 8.8 when the line stride is a multiple of 4 KiB (a 1024-wide grid),
// where 16 lines share one 8-way L1 set.
const interleave = 8

// Solve overwrites lines independent right-hand sides with the solutions
// of the factored system; element i of line j is data[start +
// j*lineStride + i*stride].  The lines must not overlap.  It allocates
// nothing.
//
// With stride == 1 (contiguous lines) interleave lines advance together
// (solveLanes).  Every other layout, and the lines mod interleave tail,
// is the one-segment case of Forward and Back: with lineStride == 1
// (lines side by side: a sweep along the slow dimension of a
// column-major block) they run row by row, so the recurrence runs across
// i while the CPU pipelines across j and the block is streamed once, and
// otherwise one line at a time.
//
// A line that leaves data panics, as indexing it would: the batched
// paths check each row, or the outermost lines of each group, once
// (against the slice's length, not its capacity) and then run unchecked.
func (f Factor) Solve(data []float64, start, stride, lineStride, lines int) {
	n := len(f.bp)
	if n == 0 || lines <= 0 {
		return
	}
	data = data[:len(data):len(data)]
	j := 0
	if stride == 1 {
		for ; j+interleave <= lines; j += interleave {
			f.solveLanes(data, start+j*lineStride, lineStride)
		}
	}
	if j < lines {
		start += j * lineStride
		f.Forward(data, start, stride, lineStride, lines-j, 0, n, nil)
		f.Back(data, start, stride, lineStride, lines-j, 0, n, nil)
	}
}

// Forward is the forward substitution over rows [g0, g0+seg) of lines
// lines: the share of Solve one processor runs when the lines are split
// into segments across processors (the static ADI's pipelined sweep).
// start, stride and lineStride address the segment as Solve's do a whole
// line, so row g0+i of line j is data[start + j*lineStride + i*stride].
// Each line carries one value across the cut: on entry carry[j] is row
// g0-1 of line j as the upstream segment's Forward left it (read only
// when g0 > 0), and on return it is row g0+seg-1, for the downstream
// segment (written only when carry is not nil).  An empty segment leaves
// carry as it is, so the value passes through.  Chaining the segments'
// Forwards and then, in reverse, their Backs is Solve, bit for bit.
func (f Factor) Forward(data []float64, start, stride, lineStride, lines, g0, seg int, carry []float64) {
	if f.idle(g0, seg, lines) {
		return
	}
	data = data[:len(data):len(data)]
	if lineStride == 1 && stride != 1 {
		prev := carry // row i-1
		for i := g0; i < g0+seg; i++ {
			cur := data[start+(i-g0)*stride:][:lines]
			if i > 0 {
				rowFwd(cur, prev, f.m[i])
			}
			prev = cur
		}
		if carry != nil {
			copy(carry[:lines], prev)
		}
		return
	}
	m := f.m[:g0+seg]
	for j := 0; j < lines; j++ {
		idx := start + j*lineStride
		if g0 > 0 {
			data[idx] -= m[g0] * carry[j]
		}
		for i := g0 + 1; i < len(m); i++ {
			idx += stride
			data[idx] -= m[i] * data[idx-stride]
		}
		if carry != nil {
			carry[j] = data[idx]
		}
	}
}

// Back is the back substitution over the rows Forward eliminated, run
// once every downstream segment's Back has: on entry carry[j] is the
// solution at row g0+seg of line j (read only when g0+seg < n), and on
// return it is the solution at row g0, for the upstream segment (written
// only when carry is not nil).
func (f Factor) Back(data []float64, start, stride, lineStride, lines, g0, seg int, carry []float64) {
	if f.idle(g0, seg, lines) {
		return
	}
	data = data[:len(data):len(data)]
	bp, c := f.bp, f.c
	end := g0 + seg
	if lineStride == 1 && stride != 1 {
		prev := carry // row i+1
		for i := end - 1; i >= g0; i-- {
			cur := data[start+(i-g0)*stride:][:lines]
			if i == len(bp)-1 {
				for j := range cur {
					cur[j] /= bp[i]
				}
			} else {
				rowBack(cur, prev, c, bp[i])
			}
			prev = cur
		}
		if carry != nil {
			copy(carry[:lines], prev)
		}
		return
	}
	for j := 0; j < lines; j++ {
		idx := start + j*lineStride + (seg-1)*stride
		if end == len(bp) {
			data[idx] /= bp[end-1]
		} else {
			data[idx] = (data[idx] - c*carry[j]) / bp[end-1]
		}
		for i := end - 2; i >= g0; i-- {
			idx -= stride
			data[idx] = (data[idx] - c*data[idx+stride]) / bp[i]
		}
		if carry != nil {
			carry[j] = data[idx]
		}
	}
}

// idle reports whether a segment sweep has nothing to do, after checking
// that its rows lie inside the system.
func (f Factor) idle(g0, seg, lines int) bool {
	if g0 < 0 || seg < 0 || g0+seg > len(f.bp) {
		panic("kernels: segment rows outside the factored system")
	}
	return seg == 0 || lines <= 0
}

// solveLanesGo solves interleave contiguous lines lineStride apart,
// element by element in lockstep: the portable solveLanes.
func (f Factor) solveLanesGo(data []float64, start, lineStride int) {
	bp, c := f.bp, f.c
	n := len(bp)
	m := f.m[:n]
	x0 := data[start:][:n]
	x1 := data[start+lineStride:][:n]
	x2 := data[start+2*lineStride:][:n]
	x3 := data[start+3*lineStride:][:n]
	x4 := data[start+4*lineStride:][:n]
	x5 := data[start+5*lineStride:][:n]
	x6 := data[start+6*lineStride:][:n]
	x7 := data[start+7*lineStride:][:n]
	for i := 1; i < n; i++ {
		mi := m[i]
		x0[i] -= mi * x0[i-1]
		x1[i] -= mi * x1[i-1]
		x2[i] -= mi * x2[i-1]
		x3[i] -= mi * x3[i-1]
		x4[i] -= mi * x4[i-1]
		x5[i] -= mi * x5[i-1]
		x6[i] -= mi * x6[i-1]
		x7[i] -= mi * x7[i-1]
	}
	x0[n-1] /= bp[n-1]
	x1[n-1] /= bp[n-1]
	x2[n-1] /= bp[n-1]
	x3[n-1] /= bp[n-1]
	x4[n-1] /= bp[n-1]
	x5[n-1] /= bp[n-1]
	x6[n-1] /= bp[n-1]
	x7[n-1] /= bp[n-1]
	for i := n - 2; i >= 0; i-- {
		bi := bp[i]
		x0[i] = (x0[i] - c*x0[i+1]) / bi
		x1[i] = (x1[i] - c*x1[i+1]) / bi
		x2[i] = (x2[i] - c*x2[i+1]) / bi
		x3[i] = (x3[i] - c*x3[i+1]) / bi
		x4[i] = (x4[i] - c*x4[i+1]) / bi
		x5[i] = (x5[i] - c*x5[i+1]) / bi
		x6[i] = (x6[i] - c*x6[i+1]) / bi
		x7[i] = (x7[i] - c*x7[i+1]) / bi
	}
}

// rowFwdGo is one row of the forward substitution, cur[j] -= mi*prev[j]:
// the portable rowFwd and the tail of the assembly one.  len(prev) must
// be len(cur).
func rowFwdGo(cur, prev []float64, mi float64) {
	prev = prev[:len(cur)]
	for j := range cur {
		cur[j] -= mi * prev[j]
	}
}

// rowBackGo is one row of the back substitution, cur[j] = (cur[j] -
// c*prev[j]) / bi, as rowFwdGo is of the forward one.
func rowBackGo(cur, prev []float64, c, bi float64) {
	prev = prev[:len(cur)]
	for j := range cur {
		cur[j] = (cur[j] - c*prev[j]) / bi
	}
}
