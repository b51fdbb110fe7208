package core

import (
	"fmt"
	"slices"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/trace"
)

// DimExpr is one component of a distribution expression in a DISTRIBUTE
// statement: a literal specifier or, as Vienna Fortran allows, another
// array's current per-dimension distribution — paper Example 3
// redistributes B4 as "(=B1, CYCLIC(3))", giving B4's first dimension
// whatever distribution B1 has *at execution time*.  It is a plain value:
// building and evaluating one allocates nothing.
type DimExpr struct {
	spec dist.DimSpec // the literal, when from is ""
	from string       // the array whose distribution is extracted
	dim  int          // the extracted dimension (0-based)
}

func (x DimExpr) eval(e *Engine, rank int) (dist.DimSpec, error) {
	if x.from == "" {
		return x.spec, nil
	}
	src, ok := e.Lookup(x.from)
	if !ok {
		return dist.DimSpec{}, fmt.Errorf("core: distribution extraction from unknown array %s", x.from)
	}
	if !src.Distributed(rank) {
		return dist.DimSpec{}, fmt.Errorf("core: distribution extraction from %s before it has a distribution", x.from)
	}
	t := src.DistType(rank)
	if x.dim < 0 || x.dim >= t.Rank() {
		return dist.DimSpec{}, fmt.Errorf("core: extraction of dimension %d from rank-%d array %s", x.dim+1, t.Rank(), x.from)
	}
	return t.Dims[x.dim], nil
}

// Lit lifts a literal dimension specifier into a DimExpr.
func Lit(spec dist.DimSpec) DimExpr { return DimExpr{spec: spec} }

// FromDim extracts dimension dim (0-based) of the named array's current
// distribution type.
func FromDim(name string, dim int) DimExpr { return DimExpr{from: name, dim: dim} }

// From extracts the single dimension of a one-dimensional array's current
// distribution type ("=B1" of paper Example 3).
func From(name string) DimExpr { return DimExpr{from: name} }

// Expr is the right-hand side of a DISTRIBUTE statement: either a
// distribution expression (literal specs, or dims with extractions,
// possibly with a target section) or an alignment specification relative
// to another array.  A statement reads it and keeps nothing of it, so
// one Expr value may serve every rank and every execution.
type Expr struct {
	specs  []dist.DimSpec // a literal expression (DimsOf)
	dims   []DimExpr      // an expression with extractions (Dims)
	target dist.Target

	alignWith string
	align     *dist.Alignment
}

// Dims builds a distribution-expression Expr.
func Dims(dims ...DimExpr) Expr { return Expr{dims: dims} }

// DimsOf builds a distribution-expression Expr from literal specifiers.
func DimsOf(specs ...dist.DimSpec) Expr { return Expr{specs: specs} }

// ExprOf lifts a resolved DistSpec into an Expr.
func ExprOf(spec DistSpec) Expr {
	return Expr{specs: spec.Type.Dims, target: spec.Target}
}

// To attaches a target processor section ("TO R(...)").
func (x Expr) To(target dist.Target) Expr {
	x.target = target
	return x
}

// AlignWith builds an alignment-specification Expr: the distributed
// array's new distribution is CONSTRUCT(align, δ_other).
func AlignWith(name string, align dist.Alignment) Expr {
	return Expr{alignWith: name, align: &align}
}

// evalFor computes the new distribution for primary array b, resolving
// an omitted target over the executing view.  It resolves to a
// distribution the rank already holds for b when one is the same mapping
// (its current one, or the one its last move left: a phase-alternating
// program's every statement), and builds one only on a miss.  A
// distribution expression is evaluated into stack storage and compared
// field by field (dist.Distribution.Is), so a hit allocates nothing and
// a miss pays those comparisons before dist.New; an alignment is
// constructed first and then compared.
func (x Expr) evalFor(ctx *machine.Ctx, e *Engine, b *Array) (*dist.Distribution, error) {
	rank := ctx.Rank()
	held := b.arr.Held(rank)
	if x.align != nil {
		other, ok := e.Lookup(x.alignWith)
		if !ok {
			return nil, fmt.Errorf("core: DISTRIBUTE %s: alignment with unknown array %s", b.name, x.alignWith)
		}
		if !other.Distributed(rank) {
			return nil, fmt.Errorf("core: DISTRIBUTE %s: alignment with undistributed array %s", b.name, x.alignWith)
		}
		d, err := dist.Construct(*x.align, other.DistOf(rank), b.dom)
		if err != nil {
			return nil, err
		}
		for _, h := range held {
			if h.Equal(d) {
				return h, nil
			}
		}
		return d, nil
	}
	specs := x.specs
	if x.dims != nil {
		var buf [8]dist.DimSpec
		specs = buf[:0]
		for _, dx := range x.dims {
			s, err := dx.eval(e, rank)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	if len(specs) != b.dom.Rank() {
		return nil, fmt.Errorf("core: DISTRIBUTE %s: expression rank %d != array rank %d", b.name, len(specs), b.dom.Rank())
	}
	tg := x.target
	if tg == nil {
		tg = e.viewTarget(ctx)
	}
	for _, h := range held {
		if h.Is(specs, b.dom, tg) {
			return h, nil
		}
	}
	return dist.New(dist.NewType(specs...), b.dom, tg)
}

// DistOption configures a DISTRIBUTE statement; mark arrays NOTRANSFER
// with core.NoTransfer(c1, c2, ...).  It is a plain value, so applying
// one allocates nothing.
type DistOption struct {
	noTransfer []*Array
}

// NoTransfer lists secondary arrays whose data is not physically moved by
// the DISTRIBUTE — the paper's NOTRANSFER attribute ("only the access
// function ... is changed").  Each listed array must be a secondary of
// one of the distributed connect classes.
func NoTransfer(arrays ...*Array) DistOption { return DistOption{noTransfer: arrays} }

// notTransferred reports whether opts list c NOTRANSFER.
func notTransferred(opts []DistOption, c *Array) bool {
	for _, o := range opts {
		if slices.Contains(o.noTransfer, c) {
			return true
		}
	}
	return false
}

// Distribute executes
//
//	DISTRIBUTE B1, ..., Bn :: da [NOTRANSFER (C1, ..., Cm)]
//
// following §2.4/§3.2.2: da is evaluated once per primary; each primary's
// declared RANGE is enforced; each primary is redistributed with data
// transfer; every secondary array in the primaries' connect classes gets
// its distribution re-derived from its connection and is redistributed,
// with data transfer unless listed in a NoTransfer option.
//
// It is an error (wrapping ErrNotPrimary) to apply Distribute to a
// secondary or statically distributed array, and an error to list a
// NOTRANSFER array that is not a secondary of one of the primaries'
// classes.  Collective.  A warm statement — its mappings held by the
// ranks, its moves in their tables — allocates nothing.
func (e *Engine) Distribute(ctx *machine.Ctx, primaries []*Array, expr Expr, opts ...DistOption) error {
	if len(primaries) == 0 {
		return fmt.Errorf("core: DISTRIBUTE with no arrays")
	}
	// Validate the NOTRANSFER set up front.
	for _, o := range opts {
		for _, c := range o.noTransfer {
			ok := false
			for _, b := range primaries {
				ok = ok || slices.Contains(b.class.secondaries, c)
			}
			if !ok {
				return fmt.Errorf("core: NOTRANSFER array %s is not a secondary of the distributed class(es)", c.name)
			}
		}
	}
	for _, b := range primaries {
		if b.connKind != ConnNone {
			return fmt.Errorf("core: DISTRIBUTE applied to secondary array %s: %w", b.name, ErrNotPrimary)
		}
		if !b.dynamic {
			return fmt.Errorf("core: DISTRIBUTE applied to statically distributed array %s: %w", b.name, ErrNotPrimary)
		}
		newD, err := expr.evalFor(ctx, e, b)
		if err != nil {
			return err
		}
		if err := e.distributeTo(ctx, b, newD, opts); err != nil {
			return err
		}
	}
	return nil
}

// distributeTo moves one primary's class to newD.  Without a memory
// budget the primary and every transferring secondary move in one
// darray.RedistributeClass ring — one message per sender–receiver pair;
// under the engine's budget, which bounds each member's peak resident
// wire bytes, each member moves on its own.  NOTRANSFER secondaries (in
// opts) stay off the wire.  On a traced run the whole statement is
// recorded as a structural span; the DISTRIBUTE spans the move opens
// inside it carry the attributed costs.
func (e *Engine) distributeTo(ctx *machine.Ctx, b *Array, newD *dist.Distribution, opts []DistOption) error {
	if !b.rng.Allows(newD.DistType()) {
		return fmt.Errorf("core: DISTRIBUTE %s :: %v violates declared %v: %w", b.name, newD.DistType(), b.rng, ErrRangeViolation)
	}
	if tr := ctx.Tracer(); tr.Enabled() {
		// Built only here: an untraced statement allocates no span name.
		defer tr.BeginSpan(ctx.Rank(), trace.CatStmt, "DISTRIBUTE "+b.name).End()
	}
	budget := darray.MemBudget(e.MemBudgetDefault()) // 0: unbounded
	// Step 1 (§3.2.2): the new distribution of B; step 2: those of the
	// connected arrays, derived from it.  A class of one (every ADI move)
	// builds no member lists.
	if len(b.class.secondaries) == 0 {
		if err := b.arr.RedistributeTo(ctx, newD, budget); err != nil {
			return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
		}
		return nil
	}
	// The class lists live in the primary's per-rank storage: the moving
	// members first (primary, then transferring secondaries), then the
	// NOTRANSFER secondaries' distributions, in class order.
	rank := ctx.Rank()
	st := &b.own[rank]
	arrays, dists := append(st.arrays[:0], b.arr), append(st.dists[:0], newD)
	for _, kept := range [2]bool{false, true} {
		for _, c := range b.class.secondaries {
			if notTransferred(opts, c) != kept {
				continue
			}
			cd, err := c.derive(rank, newD)
			if err != nil {
				return fmt.Errorf("core: DISTRIBUTE %s: deriving %s: %w", b.name, c.name, err)
			}
			if !kept {
				arrays = append(arrays, c.arr)
			}
			dists = append(dists, cd)
		}
	}
	st.arrays, st.dists = arrays, dists
	// Step 3: communicate — the class's data in one ring.
	n := len(arrays)
	if err := darray.RedistributeClass(ctx, arrays, dists[:n], budget); err != nil {
		return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
	}
	for _, c := range b.class.secondaries {
		if notTransferred(opts, c) {
			if err := c.arr.RedistributeTo(ctx, dists[n], darray.NoTransfer()); err != nil {
				return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
			}
			n++
		}
	}
	return nil
}

// MustDistribute is Distribute that panics on error.
func (e *Engine) MustDistribute(ctx *machine.Ctx, primaries []*Array, expr Expr, opts ...DistOption) {
	if err := e.Distribute(ctx, primaries, expr, opts...); err != nil {
		panic(err)
	}
}
