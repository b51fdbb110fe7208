package core

import (
	"fmt"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// Array is a Vienna Fortran array: a distributed array plus the
// declaration attributes of §2.3 (static/dynamic, distribution range,
// connect-class membership).  It implements query.Selector, so it can be
// used directly in IDT and DCASE constructs.
type Array struct {
	e       *Engine
	name    string
	dom     index.Domain
	dynamic bool
	rng     dist.Range

	class    *connectClass
	connKind ConnKind
	align    dist.Alignment
	// declErr records a wiring failure so that every SPMD rank returns
	// the same declaration error (instead of one erroring and the others
	// blocking in the collective).
	declErr error

	arr *darray.Array
	own []rankState // per rank of the declaring view
}

// rankState is what one rank keeps of an array between statements.
type rankState struct {
	// derived holds a secondary's last two derivations (derive), next the
	// slot the next one replaces.
	derived [2]derivation
	next    int
	// arrays and dists are a primary's class-move lists (distributeTo),
	// reused by its every DISTRIBUTE.
	arrays []*darray.Array
	dists  []*dist.Distribution
}

// derivation is one secondary distribution d derived from the primary's
// distribution src.
type derivation struct{ src, d *dist.Distribution }

// Name returns the declaration name.
func (a *Array) Name() string { return a.name }

// QueryName implements query.Selector.
func (a *Array) QueryName() string { return a.name }

// Domain returns the index domain.
func (a *Array) Domain() index.Domain { return a.dom }

// Dynamic reports whether the array was declared DYNAMIC.
func (a *Array) Dynamic() bool { return a.dynamic }

// ClassMembers returns the full equivalence class C(B): the primary
// followed by the secondaries, in declaration order.
func (a *Array) ClassMembers() []*Array {
	out := []*Array{a.class.primary}
	return append(out, a.class.secondaries...)
}

// Distributed implements query.Selector: whether the array currently has
// a well-defined distribution on processor rank.
func (a *Array) Distributed(rank int) bool { return a.arr.Distributed(rank) }

// DistType implements query.Selector: the distribution type processor
// rank holds.
func (a *Array) DistType(rank int) dist.Type { return a.arr.DistType(rank) }

// DistOf returns the distribution processor rank holds (nil before first
// association).  Each processor installs its own as its part of a
// DISTRIBUTE commits; SPMD code asks for its own rank.
func (a *Array) DistOf(rank int) *dist.Distribution { return a.arr.Dist(rank) }

// Dist returns the distribution processor 0 holds: every processor's,
// once all have passed a synchronizing collective after the last
// DISTRIBUTE.
func (a *Array) Dist() *dist.Distribution { return a.arr.Dist(0) }

// DArray exposes the underlying runtime array for kernels.
func (a *Array) DArray() *darray.Array { return a.arr }

// Local returns the calling processor's local storage.
func (a *Array) Local(ctx *machine.Ctx) *darray.Local { return a.arr.Local(ctx) }

// Get reads a global element (one-sided when remote).  A remote access
// reaches the owner's storage directly, so the caller orders it after the
// owner's last write and DISTRIBUTE with a barrier; a DISTRIBUTE has none
// of its own.
func (a *Array) Get(ctx *machine.Ctx, p ...int) float64 {
	return a.arr.Get(ctx, index.Point(p))
}

// FillFunc fills the locally owned elements.
func (a *Array) FillFunc(ctx *machine.Ctx, f func(p index.Point) float64) {
	a.arr.FillFunc(ctx, f)
}

// Fill sets every locally owned element to v.
func (a *Array) Fill(ctx *machine.Ctx, v float64) { a.arr.Fill(ctx, v) }

// GatherTo collects the array on root (nil elsewhere), returning a
// wrapped error on transport failure or a size-mismatched contribution.
func (a *Array) GatherTo(ctx *machine.Ctx, root int) ([]float64, error) {
	return a.arr.GatherTo(ctx, root)
}

// ExchangeAllGhosts refreshes all overlap areas, returning a wrapped
// error on transport failure.
func (a *Array) ExchangeAllGhosts(ctx *machine.Ctx) error { return a.arr.ExchangeAllGhosts(ctx) }

// StartExchangeGhosts begins an asynchronous refresh of dimension k's
// overlap areas; complete it with darray.GhostHandle.Wait before reading
// the ghost cells.  The start/wait split lets a sweep compute its
// interior while the halos are in flight.
func (a *Array) StartExchangeGhosts(ctx *machine.Ctx, k int) (*darray.GhostHandle, error) {
	return a.arr.StartExchangeGhosts(ctx, k)
}

// StartExchangeAllGhosts begins an asynchronous refresh of every overlap
// area, returning one handle that completes them all.
func (a *Array) StartExchangeAllGhosts(ctx *machine.Ctx) (*darray.GhostHandle, error) {
	return a.arr.StartExchangeAllGhosts(ctx)
}

// Epoch returns the number of redistributions processor rank has
// committed.
func (a *Array) Epoch(rank int) int { return a.arr.Epoch(rank) }

func (a *Array) String() string { return a.arr.String() }

// derive computes this secondary array's distribution on rank from the
// primary's, per the connection recorded at declaration (§2.4 step "for
// each secondary array A in C(B), its distribution is determined from the
// distribution type associated with da, I^A, and the connection").  The
// result is a function of primDist alone — the connection never changes
// and distributions are immutable — so a primary distribution met in
// one of the rank's last two derivations resolves to the distribution
// derived then, allocating nothing: the primary's own resolution hands
// back the mappings it holds, so a phase-alternating class always hits.
func (a *Array) derive(rank int, primDist *dist.Distribution) (*dist.Distribution, error) {
	st := &a.own[rank]
	for _, h := range st.derived {
		if h.src == primDist {
			return h.d, nil
		}
	}
	var d *dist.Distribution
	var err error
	switch a.connKind {
	case ConnExtract:
		d, err = dist.Extract(primDist, a.dom)
	case ConnAlign:
		d, err = dist.Construct(a.align, primDist, a.dom)
	default:
		return nil, fmt.Errorf("core: %s is not a secondary array", a.name)
	}
	if err != nil {
		return nil, err
	}
	st.derived[st.next], st.next = derivation{primDist, d}, 1-st.next
	return d, nil
}

// CallWith implements procedure-boundary implicit redistribution (§4):
// the array is redistributed to the callee's declared distribution, body
// runs, and afterwards the array either keeps the (possibly changed)
// distribution — Vienna Fortran semantics, where "if an array is
// redistributed in a procedure, [the language permits] the new
// distribution to be returned to the calling procedure" — or is restored
// to the distribution it had at the call when restore is true (the HPF
// behaviour the paper contrasts).
//
// CallWith is only legal on primary arrays; the whole connect class moves,
// as a DISTRIBUTE would.
func (a *Array) CallWith(ctx *machine.Ctx, spec DistSpec, restore bool, body func() error) error {
	if a.connKind != ConnNone {
		return fmt.Errorf("core: CallWith on secondary array %s: %w", a.name, ErrNotPrimary)
	}
	if !a.dynamic {
		return fmt.Errorf("core: CallWith on statically distributed array %s: %w", a.name, ErrNotPrimary)
	}
	saved := a.arr.Dist(ctx.Rank())
	if err := a.e.Distribute(ctx, []*Array{a}, ExprOf(spec)); err != nil {
		return err
	}
	err := body()
	if restore && saved != nil {
		dErr := a.e.distributeTo(ctx, a, saved, nil)
		if err == nil {
			err = dErr
		}
	}
	return err
}
