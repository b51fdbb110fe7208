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
// their dependency chains overlap in the pipeline (solve8; 4 lines
// measured 3.5 ns per element, 8 lines 2.7).
const interleave = 8

// Solve overwrites lines independent right-hand sides with the solutions
// of the factored system; element i of line j is data[start +
// j*lineStride + i*stride].  The lines must not overlap.  It allocates
// nothing.
//
// With lineStride == 1 (lines side by side: a sweep along the slow
// dimension of a column-major block) the line index runs innermost over
// two contiguous rows, so the recurrence runs across i while the CPU
// pipelines across j and the block is streamed once.  With stride == 1
// (contiguous lines) interleave lines advance together.  Any other
// layout, and the lines mod interleave tail, go one line at a time.
func (f Factor) Solve(data []float64, start, stride, lineStride, lines int) {
	n := len(f.bp)
	if n == 0 || lines <= 0 {
		return
	}
	if lineStride == 1 && stride != 1 {
		f.solveRows(data, start, stride, lines)
		return
	}
	j := 0
	if stride == 1 {
		for ; j+interleave <= lines; j += interleave {
			f.solve8(data, start+j*lineStride, lineStride)
		}
	}
	for ; j < lines; j++ {
		f.solveLine(data, start+j*lineStride, stride)
	}
}

// solveLine is TridiagStrided over the shared factor.
func (f Factor) solveLine(data []float64, start, stride int) {
	m, bp, c := f.m, f.bp, f.c
	n := len(bp)
	idx := start + stride
	for i := 1; i < n; i, idx = i+1, idx+stride {
		data[idx] -= m[i] * data[idx-stride]
	}
	last := start + (n-1)*stride
	data[last] /= bp[n-1]
	idx = last - stride
	for i := n - 2; i >= 0; i, idx = i-1, idx-stride {
		data[idx] = (data[idx] - c*data[idx+stride]) / bp[i]
	}
}

// solve8 solves eight contiguous lines lineStride apart, element by
// element in lockstep.
func (f Factor) solve8(data []float64, start, lineStride int) {
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

// solveRows solves lines lines stored side by side: row i holds element
// i of every line, contiguously.
func (f Factor) solveRows(data []float64, start, stride, lines int) {
	m, bp, c := f.m, f.bp, f.c
	n := len(bp)
	row := func(i int) []float64 { return data[start+i*stride:][:lines] }
	prev := row(0)
	for i := 1; i < n; i++ {
		cur, mi := row(i), m[i]
		for j, p := range prev {
			cur[j] -= mi * p
		}
		prev = cur
	}
	for j := range prev {
		prev[j] /= bp[n-1]
	}
	for i := n - 2; i >= 0; i-- {
		cur, bi := row(i), bp[i]
		for j, p := range prev {
			cur[j] = (cur[j] - c*p) / bi
		}
		prev = cur
	}
}
