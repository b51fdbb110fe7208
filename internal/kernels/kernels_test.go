package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// applyTridiag computes y = T x for the constant-coefficient tridiagonal
// operator.
func applyTridiag(x []float64, a, b, c float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b * x[i]
		if i > 0 {
			y[i] += a * x[i-1]
		}
		if i < n-1 {
			y[i] += c * x[i+1]
		}
	}
	return y
}

func TestTridiagSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		a, b, c := -1.0, 4.0, -1.0
		rhs := applyTridiag(x, a, b, c)
		Tridiag(rhs, a, b, c, nil)
		for i := range x {
			if math.Abs(rhs[i]-x[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %g want %g", n, i, rhs[i], x[i])
			}
		}
	}
}

func TestTridiagStridedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, stride, start = 17, 3, 2
	data := make([]float64, start+n*stride+5)
	for i := range data {
		data[i] = rng.Float64()
	}
	dense := make([]float64, n)
	for i := 0; i < n; i++ {
		dense[i] = data[start+i*stride]
	}
	a, b, c := -1.0, 4.0, -1.0
	Tridiag(dense, a, b, c, nil)
	TridiagStrided(data, start, stride, n, a, b, c, nil)
	for i := 0; i < n; i++ {
		if math.Abs(data[start+i*stride]-dense[i]) > 1e-12 {
			t.Fatalf("strided[%d] = %g want %g", i, data[start+i*stride], dense[i])
		}
	}
	// untouched elements stay untouched
	if data[0] == 0 {
		t.Fatal("out-of-line element clobbered")
	}
}

func TestSmooth5(t *testing.T) {
	const nx, ny = 4, 3
	in := make([]float64, nx*ny)
	for i := range in {
		in[i] = float64(i)
	}
	out := make([]float64, nx*ny)
	Smooth5(out, in, nx, ny)
	// interior points: (1,1) at 1*4+1=5 and (2,1) at 6
	want5 := 0.25 * (in[4] + in[6] + in[1] + in[9])
	if out[5] != want5 {
		t.Fatalf("out[5] = %g want %g", out[5], want5)
	}
	// boundary copied
	if out[0] != in[0] || out[nx*ny-1] != in[nx*ny-1] {
		t.Fatal("boundary not copied")
	}
}

func TestResid(t *testing.T) {
	const nx, ny = 5, 5
	u := make([]float64, nx*ny)
	f := make([]float64, nx*ny)
	for i := range u {
		u[i] = float64(i % 7)
		f[i] = 1
	}
	v := make([]float64, nx*ny)
	Resid(v, u, f, nx, ny)
	k := 2*nx + 2 // interior point (2,2)
	want := f[k] - (4*u[k] - u[k-1] - u[k+1] - u[k-nx] - u[k+nx])
	if v[k] != want {
		t.Fatalf("v = %g want %g", v[k], want)
	}
	if v[0] != 0 {
		t.Fatal("boundary residual should be 0")
	}
}

func TestSerialADIConverges(t *testing.T) {
	// repeated tridiagonal smoothing with a diagonally dominant operator
	// contracts toward zero for zero rhs
	const nx, ny = 16, 16
	v := make([]float64, nx*ny)
	rng := rand.New(rand.NewSource(4))
	for i := range v {
		v[i] = rng.Float64()
	}
	norm0 := 0.0
	for _, x := range v {
		norm0 += x * x
	}
	SerialADI(v, nx, ny, 5, -1, 4, -1)
	norm1 := 0.0
	for _, x := range v {
		norm1 += x * x
	}
	if norm1 >= norm0 {
		t.Fatalf("ADI did not contract: %g -> %g", norm0, norm1)
	}
}

func TestSmoothRowMatchesSmooth5(t *testing.T) {
	const nx, ny = 9, 7
	in := make([]float64, nx*ny)
	for i := range in {
		in[i] = float64((i*13)%17) * 0.5
	}
	want := make([]float64, nx*ny)
	Smooth5(want, in, nx, ny)
	got := make([]float64, nx*ny)
	copy(got, in)
	for j := 1; j < ny-1; j++ {
		SmoothRow(got, in, j*nx+1, nx-2, nx)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: SmoothRow path %v, Smooth5 %v", i, got[i], want[i])
		}
	}
}
