package core

import (
	"fmt"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/trace"
)

// DimExpr is one component of a distribution expression in a DISTRIBUTE
// statement.  Besides literal specifiers, Vienna Fortran lets a component
// extract another array's current per-dimension distribution — paper
// Example 3 redistributes B4 as "(=B1, CYCLIC(3))", giving B4's first
// dimension whatever distribution B1 has *at execution time*.
type DimExpr interface {
	eval(e *Engine, rank int) (dist.DimSpec, error)
}

type litDim struct{ spec dist.DimSpec }

func (l litDim) eval(*Engine, int) (dist.DimSpec, error) { return l.spec, nil }

// Lit lifts a literal dimension specifier into a DimExpr.
func Lit(spec dist.DimSpec) DimExpr { return litDim{spec} }

type fromDim struct {
	name string
	dim  int
}

func (f fromDim) eval(e *Engine, rank int) (dist.DimSpec, error) {
	src, ok := e.Lookup(f.name)
	if !ok {
		return dist.DimSpec{}, fmt.Errorf("core: distribution extraction from unknown array %s", f.name)
	}
	if !src.Distributed(rank) {
		return dist.DimSpec{}, fmt.Errorf("core: distribution extraction from %s before it has a distribution", f.name)
	}
	t := src.DistType(rank)
	if f.dim < 0 || f.dim >= t.Rank() {
		return dist.DimSpec{}, fmt.Errorf("core: extraction of dimension %d from rank-%d array %s", f.dim+1, t.Rank(), f.name)
	}
	return t.Dims[f.dim], nil
}

// FromDim extracts dimension dim (0-based) of the named array's current
// distribution type.
func FromDim(name string, dim int) DimExpr { return fromDim{name, dim} }

// From extracts the single dimension of a one-dimensional array's current
// distribution type ("=B1" of paper Example 3).
func From(name string) DimExpr { return fromDim{name, 0} }

// Expr is the right-hand side of a DISTRIBUTE statement: either a
// distribution expression (Dims, possibly with a target section) or an
// alignment specification relative to another array.
type Expr struct {
	dims   []DimExpr
	target dist.Target

	alignWith string
	align     *dist.Alignment
}

// Dims builds a distribution-expression Expr.
func Dims(dims ...DimExpr) Expr { return Expr{dims: dims} }

// DimsOf builds a distribution-expression Expr from literal specifiers.
func DimsOf(specs ...dist.DimSpec) Expr {
	dims := make([]DimExpr, len(specs))
	for i, s := range specs {
		dims[i] = Lit(s)
	}
	return Expr{dims: dims}
}

// ExprOf lifts a resolved DistSpec into an Expr.
func ExprOf(spec DistSpec) Expr {
	ex := DimsOf(spec.Type.Dims...)
	ex.target = spec.Target
	return ex
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
// an omitted target over the executing view.
func (x Expr) evalFor(ctx *machine.Ctx, e *Engine, b *Array) (*dist.Distribution, error) {
	if x.align != nil {
		other, ok := e.Lookup(x.alignWith)
		if !ok {
			return nil, fmt.Errorf("core: DISTRIBUTE %s: alignment with unknown array %s", b.name, x.alignWith)
		}
		if !other.Distributed(ctx.Rank()) {
			return nil, fmt.Errorf("core: DISTRIBUTE %s: alignment with undistributed array %s", b.name, x.alignWith)
		}
		return dist.Construct(*x.align, other.DistOf(ctx.Rank()), b.dom)
	}
	specs := make([]dist.DimSpec, len(x.dims))
	for i, dx := range x.dims {
		s, err := dx.eval(e, ctx.Rank())
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	typ := dist.NewType(specs...)
	if typ.Rank() != b.dom.Rank() {
		return nil, fmt.Errorf("core: DISTRIBUTE %s: expression rank %d != array rank %d", b.name, typ.Rank(), b.dom.Rank())
	}
	tg := x.target
	if tg == nil {
		tg = e.viewTarget(ctx)
	}
	return dist.New(typ, b.dom, tg)
}

// DistOption configures a DISTRIBUTE statement; mark arrays NOTRANSFER
// with core.NoTransfer(c1, c2, ...).
type DistOption interface {
	applyDist(*distConfig)
}

type distConfig struct {
	noTransfer []*Array
}

type distOptionFunc func(*distConfig)

func (f distOptionFunc) applyDist(c *distConfig) { f(c) }

// NoTransfer lists secondary arrays whose data is not physically moved by
// the DISTRIBUTE — the paper's NOTRANSFER attribute ("only the access
// function ... is changed").  Each listed array must be a secondary of
// one of the distributed connect classes.
func NoTransfer(arrays ...*Array) DistOption {
	return distOptionFunc(func(c *distConfig) {
		c.noTransfer = append(c.noTransfer, arrays...)
	})
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
// classes.  Collective.
func (e *Engine) Distribute(ctx *machine.Ctx, primaries []*Array, expr Expr, opts ...DistOption) error {
	if len(primaries) == 0 {
		return fmt.Errorf("core: DISTRIBUTE with no arrays")
	}
	var cfg distConfig
	for _, o := range opts {
		o.applyDist(&cfg)
	}
	// Validate the NOTRANSFER set up front.  Without a size the map
	// allocates nothing until its first entry.
	nt := make(map[*Array]bool)
	for _, c := range cfg.noTransfer {
		ok := false
		for _, b := range primaries {
			for _, s := range b.class.secondaries {
				if s == c {
					ok = true
				}
			}
		}
		if !ok {
			return fmt.Errorf("core: NOTRANSFER array %s is not a secondary of the distributed class(es)", c.name)
		}
		nt[c] = true
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
		if err := e.distributeTo(ctx, b, newD, nt); err != nil {
			return err
		}
	}
	return nil
}

// distributeTo moves one primary's class to newD.  Without a memory
// budget the primary and every transferring secondary move in one
// darray.RedistributeClass ring — one message per sender–receiver pair;
// under the engine's budget, which bounds each member's peak resident
// wire bytes, each member moves on its own.  NOTRANSFER secondaries stay
// off the wire.  On a traced run the whole statement is recorded as a
// structural span; the DISTRIBUTE spans the move opens inside it carry
// the attributed costs.
func (e *Engine) distributeTo(ctx *machine.Ctx, b *Array, newD *dist.Distribution, nt map[*Array]bool) error {
	if !b.rng.Allows(newD.DistType()) {
		return fmt.Errorf("core: DISTRIBUTE %s :: %v violates declared %v: %w", b.name, newD.DistType(), b.rng, ErrRangeViolation)
	}
	if tr := ctx.Tracer(); tr.Enabled() {
		// Built only here: an untraced statement allocates no span name.
		defer tr.BeginSpan(ctx.Rank(), trace.CatStmt, "DISTRIBUTE "+b.name).End()
	}
	var bopt []darray.RedistOption
	if budget := e.MemBudgetDefault(); budget > 0 {
		bopt = append(bopt, darray.MemBudget(budget))
	}
	// Step 1 (§3.2.2): the new distribution of B; step 2: those of the
	// connected arrays, derived from it.  A class of one (every ADI move)
	// builds no member lists.
	if len(b.class.secondaries) == 0 {
		if err := b.arr.RedistributeTo(ctx, newD, bopt...); err != nil {
			return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
		}
		return nil
	}
	arrays, dists := []*darray.Array{b.arr}, []*dist.Distribution{newD}
	var kept []*Array
	var keptDists []*dist.Distribution
	for _, c := range b.class.secondaries {
		cd, err := c.derive(newD)
		if err != nil {
			return fmt.Errorf("core: DISTRIBUTE %s: deriving %s: %w", b.name, c.name, err)
		}
		if nt[c] {
			kept, keptDists = append(kept, c), append(keptDists, cd)
			continue
		}
		arrays, dists = append(arrays, c.arr), append(dists, cd)
	}
	// Step 3: communicate — the class's data in one ring.
	if err := darray.RedistributeClass(ctx, arrays, dists, bopt...); err != nil {
		return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
	}
	for i, c := range kept {
		if err := c.arr.RedistributeTo(ctx, keptDists[i], darray.NoTransfer()); err != nil {
			return fmt.Errorf("core: DISTRIBUTE %s: %w", b.name, err)
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
