// Package kernels provides the numerical routines the paper's application
// studies call (§4): the constant-coefficient tridiagonal solver TRIDIAG
// used by the ADI iteration of Figure 1, a residual computation, and the
// 5-point smoothing step whose communication pattern §4 analyzes, and
// the per-particle work of Figure 2's update_field (ParticleWork).
//
// TRIDIAG is eliminated once, by Factor: Solve for lines local to one
// processor (the dynamic-distribution ADI and the interpreter's TRIDIAG),
// and Forward/Back over one segment of many lines for the pipelined
// distributed solve a compiler must emit when the lines are spread
// across processors (the static-distribution ADI baseline).  Tridiag and
// TridiagStrided are the per-line reference they are tested against.
package kernels

// Tridiag overwrites rhs with the solution of the constant-coefficient
// tridiagonal system
//
//	a*x[i-1] + b*x[i] + c*x[i+1] = rhs[i]
//
// (x[-1] = x[n] = 0), the contract of Figure 1's TRIDIAG: "a sequential
// routine ... which is given a right hand side and overwrites it with the
// solution of a constant coefficient tridiagonal system".  scratch must
// have len(rhs) capacity (it holds the modified diagonal); pass nil to
// allocate.
func Tridiag(rhs []float64, a, b, c float64, scratch []float64) {
	n := len(rhs)
	if n == 0 {
		return
	}
	if scratch == nil {
		scratch = make([]float64, n)
	}
	bp := scratch[:n]
	bp[0] = b
	for i := 1; i < n; i++ {
		m := a / bp[i-1]
		bp[i] = b - m*c
		rhs[i] -= m * rhs[i-1]
	}
	rhs[n-1] /= bp[n-1]
	for i := n - 2; i >= 0; i-- {
		rhs[i] = (rhs[i] - c*rhs[i+1]) / bp[i]
	}
}

// TridiagStrided is Tridiag over a strided line data[start], data[start+
// stride], ..., n elements — the form needed to solve along a row of a
// column-major local block without copying.
func TridiagStrided(data []float64, start, stride, n int, a, b, c float64, scratch []float64) {
	if n == 0 {
		return
	}
	if scratch == nil {
		scratch = make([]float64, n)
	}
	bp := scratch[:n]
	bp[0] = b
	idx := start + stride
	for i := 1; i < n; i, idx = i+1, idx+stride {
		m := a / bp[i-1]
		bp[i] = b - m*c
		data[idx] -= m * data[idx-stride]
	}
	last := start + (n-1)*stride
	data[last] /= bp[n-1]
	idx = last - stride
	for i := n - 2; i >= 0; i, idx = i-1, idx-stride {
		data[idx] = (data[idx] - c*data[idx+stride]) / bp[i]
	}
}

// Smooth5 computes one Jacobi smoothing step on the interior of a dense
// column-major nx×ny grid: out = 0.25*(N+S+E+W).  Boundary values are
// copied through.  The 4-nearest-neighbour dependence is the access
// pattern of the paper's §4 grid example.
func Smooth5(out, in []float64, nx, ny int) {
	copy(out, in)
	for j := 1; j < ny-1; j++ {
		base := j * nx
		for i := 1; i < nx-1; i++ {
			k := base + i
			out[k] = 0.25 * (in[k-1] + in[k+1] + in[k-nx] + in[k+nx])
		}
	}
}

// SmoothRow applies the 5-point Jacobi update to one contiguous row span
// of a column-major grid: dst[i] = 0.25*(W+E+N+S) for i in [off, off+n),
// with rowStride the storage distance between vertically adjacent
// elements (dimension-0 storage stride must be 1).  This is the span
// form of Smooth5's inner loop, used by the runtime's distributed
// smoothing sweep so locally owned rows are processed as flat slices —
// no per-point index mapping inside the sweep.  dst and src must not
// overlap; n <= 0 is a no-op.
//
// The five operands are re-sliced once per row (against the slices'
// lengths, not their capacities), so a span that leaves either slice
// panics here, before any point is written, and the row kernel runs
// without a bounds check per load.
func SmoothRow(dst, src []float64, off, n, rowStride int) {
	if n <= 0 {
		return
	}
	dst, src = dst[:len(dst):len(dst)], src[:len(src):len(src)]
	d := dst[off : off+n]
	c := src[off-1 : off+n+1]
	s := src[off-rowStride : off-rowStride+n]
	nn := src[off+rowStride : off+rowStride+n]
	smoothSpan(d, c, s, nn)
}

// smoothSpanGo is the portable row kernel (the whole of smoothSpan off
// amd64 and under -race, the tail of the row on amd64): d[i] from the
// centre row c, which starts one point west of d, and the rows s and nn
// below and above it.  The sum keeps one association on every target,
// and no product feeds an add, so no compiler may fuse it: the result is
// Float64bits-identical everywhere.
func smoothSpanGo(d, c, s, nn []float64) {
	w, e, s, nn := c[:len(d)], c[2:len(d)+2], s[:len(d)], nn[:len(d)]
	for i := range d {
		d[i] = 0.25 * (((w[i] + e[i]) + s[i]) + nn[i])
	}
}

// Resid computes v = f - A(u) for the 5-point Laplacian A(u) = 4u -
// u(i±1,j) - u(i,j±1) on the interior of a dense column-major nx×ny grid;
// boundary v is set to 0.  This is the RESID of Figure 1.
func Resid(v, u, f []float64, nx, ny int) {
	for i := range v {
		v[i] = 0
	}
	for j := 1; j < ny-1; j++ {
		base := j * nx
		for i := 1; i < nx-1; i++ {
			k := base + i
			v[k] = f[k] - (4*u[k] - u[k-1] - u[k+1] - u[k-nx] - u[k+nx])
		}
	}
}

// SerialADI runs iters ADI iterations on a dense column-major nx×ny grid
// v (in place): each iteration solves the constant-coefficient tridiagonal
// system along every x-line (columns, stride 1) and then along every
// y-line (rows, stride nx).  It is the reference the distributed runs are
// validated against.
func SerialADI(v []float64, nx, ny, iters int, a, b, c float64) {
	scratch := make([]float64, max(nx, ny))
	for it := 0; it < iters; it++ {
		for j := 0; j < ny; j++ {
			Tridiag(v[j*nx:(j+1)*nx], a, b, c, scratch)
		}
		for i := 0; i < nx; i++ {
			TridiagStrided(v, i, nx, ny, a, b, c, scratch)
		}
	}
}
