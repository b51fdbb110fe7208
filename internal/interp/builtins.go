package interp

import (
	"fmt"
	"math"

	"repro/internal/index"
	"repro/internal/kernels"
)

// Coefficients of the constant-coefficient tridiagonal system TRIDIAG
// solves (shared with internal/apps so results are comparable).
const (
	TriA = -1.0
	TriB = 4.0
	TriC = -1.0
)

// builtinTridiag is Figure 1's TRIDIAG(line, n): solve the constant-
// coefficient tridiagonal system along the single section dimension of
// the first argument, overwriting the right-hand side with the solution.
//
// When every owner of the line holds it entirely (the section dimension
// is elided or unreplicated-local), the solve is purely local — the
// situation dynamic redistribution creates.  Otherwise the line spans
// processors and the owner of its first element gathers it element-wise,
// solves, and writes it back: the compiler-embedded communication the
// paper describes for the static variant.
func builtinTridiag(st *State, args []any) error {
	if len(args) < 2 {
		return fmt.Errorf("TRIDIAG needs (section, n)")
	}
	aa, ok := args[0].(*ArrayArg)
	if !ok {
		return fmt.Errorf("TRIDIAG first argument must be an array section")
	}
	nf, ok := args[1].(float64)
	if !ok {
		return fmt.Errorf("TRIDIAG second argument must be scalar")
	}
	dims := aa.SectionDims()
	if len(dims) != 1 {
		return fmt.Errorf("TRIDIAG needs exactly one section dimension, got %d", len(dims))
	}
	dim := dims[0]
	arr, ctx := aa.Arr, st.Ctx
	// synchronize: preceding owner-computes writes must be visible before
	// any cross-processor reads below
	if err := ctx.Barrier(); err != nil {
		return err
	}
	d := arr.DistOf(ctx.Rank())
	dom := arr.Domain()
	lo := dom.Lo[dim]
	// n comes from the program text: a NaN or infinity fails the range
	// test, a fraction (which int() would silently truncate) the second.
	if !(nf >= 0 && nf <= float64(dom.Extent(dim))) || nf != math.Trunc(nf) {
		return fmt.Errorf("TRIDIAG length %v must be an integer in 0..%d", nf, dom.Extent(dim))
	}
	n := int(nf)
	first := make(index.Point, dom.Rank())
	copy(first, aa.Fixed)
	first[dim] = lo

	// Every line of a length shares one elimination, built by the first
	// CALL that solves one.
	f, ok := st.factors[n]
	if !ok {
		f = kernels.NewFactor(n, TriA, TriB, TriC)
		st.factors[n] = f
	}
	if d.ProcDim(dim) < 0 {
		// line fully local to its owners: in-place strided solve
		if d.IsLocal(ctx.Rank(), first) {
			l := arr.Local(ctx)
			f.Solve(l.Data(), l.Offset(first), l.Stride()[dim], 0, 1)
		}
		return ctx.Barrier()
	}
	// distributed line: gather-solve-scatter on the first element's owner
	if ctx.Rank() == d.Owner(first) {
		vals := make([]float64, n)
		p := first.Clone()
		for i := 0; i < n; i++ {
			p[dim] = lo + i
			vals[i] = arr.DArray().Get(ctx, p)
		}
		f.Solve(vals, 0, 1, 0, 1)
		for i := 0; i < n; i++ {
			p[dim] = lo + i
			arr.DArray().Set(ctx, p, vals[i])
		}
	}
	return ctx.Barrier()
}

// builtinResid is Figure 1's RESID(V, U, F, NX, NY): V = F - A(U) for the
// 5-point Laplacian, owner-computes on V with one-sided reads of U where
// its neighbours are remote.  Boundary residuals are zero.
func builtinResid(st *State, args []any) error {
	if len(args) < 3 {
		return fmt.Errorf("RESID needs (V, U, F, ...)")
	}
	va, ok1 := args[0].(*ArrayArg)
	ua, ok2 := args[1].(*ArrayArg)
	fa, ok3 := args[2].(*ArrayArg)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("RESID arguments must be whole arrays")
	}
	ctx := st.Ctx
	// preceding writes must be visible before remote reads
	if err := ctx.Barrier(); err != nil {
		return err
	}
	v, u, f := va.Arr, ua.Arr, fa.Arr
	dom := v.Domain()
	lu := u.Local(ctx)
	lf := f.Local(ctx)
	get := func(p index.Point) float64 {
		if lu.Owns(p) {
			return lu.At(p)
		}
		return u.DArray().Get(ctx, p)
	}
	v.Local(ctx).ForEachOwned(func(p index.Point, val *float64) {
		i, j := p[0], p[1]
		if i == dom.Lo[0] || i == dom.Hi[0] || j == dom.Lo[1] || j == dom.Hi[1] {
			*val = 0
			return
		}
		var fv float64
		if lf.Owns(p) {
			fv = lf.At(p)
		} else {
			fv = f.DArray().Get(ctx, p)
		}
		*val = fv - (4*get(p) -
			get(index.Point{i - 1, j}) - get(index.Point{i + 1, j}) -
			get(index.Point{i, j - 1}) - get(index.Point{i, j + 1}))
	})
	if err := ctx.Barrier(); err != nil {
		return err
	}
	return nil
}
