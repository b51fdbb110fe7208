//go:build amd64 && !race

package kernels

// The SSE2 kernels behind Factor.Solve (factor_amd64.s).  SSE2 is the
// GOAMD64=v1 baseline, so nothing is probed or dispatched, and lane-wise
// MULPD/SUBPD/DIVPD round exactly as the MULSD/SUBSD/DIVSD the compiler
// emits for the Go loops (it fuses no x - m*y on amd64, GOAMD64=v3
// included: check-kernels is the tripwire), so the results are
// Float64bits-identical to theirs.  The back substitution is bound by the
// divider — one DIVPD or DIVSD per 4 cycles — so two quotients a divide
// is the gain, and a wider divide holds the divider as much longer.

// rowFwdSSE2 and rowBackSSE2 are rowFwdGo and rowBackGo over n points, n
// a positive multiple of 4.
//
//go:noescape
func rowFwdSSE2(cur, prev *float64, n int, mi float64)

//go:noescape
func rowBackSSE2(cur, prev *float64, n int, c, bi float64)

// solveLanesSSE2 is solveLanesGo over the interleave lines of n >= 1
// elements that start at x, lineStride elements apart, a pair of lines in
// the two lanes of each register.
//
//go:noescape
func solveLanesSSE2(x *float64, lineStride int, m, bp *float64, n int, c float64)

// rowFwd runs the SSE2 kernel over the largest multiple of 4 points and
// the Go loop over the tail.  Forward's and Back's re-slices of each row
// are the assembly's bounds check.
func rowFwd(cur, prev []float64, mi float64) {
	prev = prev[:len(cur)]
	k := len(cur) &^ 3
	if k > 0 {
		rowFwdSSE2(&cur[0], &prev[0], k, mi)
	}
	rowFwdGo(cur[k:], prev[k:], mi)
}

func rowBack(cur, prev []float64, c, bi float64) {
	prev = prev[:len(cur)]
	k := len(cur) &^ 3
	if k > 0 {
		rowBackSSE2(&cur[0], &prev[0], k, c, bi)
	}
	rowBackGo(cur[k:], prev[k:], c, bi)
}

// solveLanes checks the first and the last line — the lines between start
// inside the span those two cover — and hands the block to the kernel,
// which checks nothing.
func (f Factor) solveLanes(data []float64, start, lineStride int) {
	n := len(f.bp)
	first := data[start:][:n]
	_ = data[start+(interleave-1)*lineStride:][:n]
	solveLanesSSE2(&first[0], lineStride, &f.m[0], &f.bp[0], n, f.c)
}
