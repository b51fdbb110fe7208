package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestDistributeResolution: a DISTRIBUTE resolves its expression to a
// distribution the rank holds only when that is the mapping the
// expression denotes now.  Every statement's result is held to a
// distribution built from scratch (same fingerprint, Equal) and every
// moved value to its original, through B_BLOCK bounds that change in one
// bound or in place in the caller's buffer, one statement over arrays of
// different domains, TO sections of one processor array, an extraction
// whose source moved, and an alignment whose target moved.  Going back
// to a mapping the rank holds must hand back that object.  The Expr
// values are shared by every rank (go test -race checks that resolution
// only reads them).
func TestDistributeResolution(t *testing.T) {
	const np = 4
	bb1 := DimsOf(dist.BBlockDim(10, 30, 50, 64))
	bb2 := DimsOf(dist.BBlockDim(10, 30, 51, 64))
	rows := DimsOf(dist.BlockDim(), dist.ElidedDim())
	cols := DimsOf(dist.ElidedDim(), dist.BlockDim())
	block := DimsOf(dist.BlockDim())
	extract := Dims(Lit(dist.ElidedDim()), FromDim("B1", 0))
	align := AlignWith("Q", dist.Transpose2D())
	val := func(p index.Point) float64 {
		if len(p) == 1 {
			return float64(p[0])
		}
		return float64(100*p[0] + p[1])
	}
	run(t, np, func(ctx *machine.Ctx, e *Engine) error {
		rank := ctx.Rank()
		view := e.viewTarget(ctx)
		q := e.Machine().ProcsDim("Q", np)
		lo, hi := q.Section([3]int{1, 2, 1}), q.Section([3]int{3, 4, 1})
		declare := func(name string, dom index.Domain, typ dist.Type) *Array {
			a := e.MustDeclare(ctx, Decl{Name: name, Domain: dom, Dynamic: true, Init: &DistSpec{Type: typ}})
			a.FillFunc(ctx, val)
			return a
		}
		f := declare("F", index.Dim(64), dist.NewType(dist.BlockDim()))
		v := declare("V", index.Dim(64, 48), dist.NewType(dist.ElidedDim(), dist.BlockDim()))
		w := declare("W", index.Dim(48, 64), dist.NewType(dist.ElidedDim(), dist.BlockDim()))
		b1 := declare("B1", index.Dim(64), dist.NewType(dist.BlockDim()))
		p := declare("P", index.Dim(48, 64), dist.NewType(dist.ElidedDim(), dist.BlockDim()))
		qa := declare("Q", index.Dim(64, 48), dist.NewType(dist.BlockDim(), dist.ElidedDim()))

		// step distributes arrs by x and holds each to want(a), returning
		// the first array's new distribution.
		step := func(arrs []*Array, x Expr, want func(a *Array) *dist.Distribution) *dist.Distribution {
			t.Helper()
			if err := e.Distribute(ctx, arrs, x); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			for _, a := range arrs {
				got, w := a.DistOf(rank), want(a)
				if !got.Equal(w) || got.Fingerprint() != w.Fingerprint() {
					t.Errorf("rank %d: %s resolved to %v (%s), want %v (%s)", rank, a.Name(), got, got.Fingerprint(), w, w.Fingerprint())
				}
				a.Local(ctx).ForEachOwned(func(pt index.Point, x *float64) {
					if *x != val(pt) {
						t.Errorf("rank %d: %s%v = %v, want %v", rank, a.Name(), pt, *x, val(pt))
					}
				})
			}
			return arrs[0].DistOf(rank)
		}
		over := func(tg dist.Target, specs ...dist.DimSpec) func(a *Array) *dist.Distribution {
			return func(a *Array) *dist.Distribution { return dist.MustNew(dist.NewType(specs...), a.Domain(), tg) }
		}
		same := func(what string, got, want *dist.Distribution) {
			t.Helper()
			if got != want {
				t.Errorf("rank %d: %s: a held mapping was rebuilt", rank, what)
			}
		}

		// B_BLOCK bounds one bound apart, and back.
		d1 := step([]*Array{f}, bb1, over(view, dist.BBlockDim(10, 30, 50, 64)))
		step([]*Array{f}, bb2, over(view, dist.BBlockDim(10, 30, 51, 64)))
		same("B_BLOCK back", step([]*Array{f}, bb1, over(view, dist.BBlockDim(10, 30, 50, 64))), d1)
		// The rank's own bounds buffer, changed in place between two
		// statements: the held distribution keeps the bounds it was built
		// with.
		mine := []int{12, 30, 50, 64}
		spec := [1]dist.DimSpec{{Kind: dist.BBlock, Bounds: mine}}
		d2 := step([]*Array{f}, DimsOf(spec[:]...), over(view, dist.BBlockDim(12, 30, 50, 64)))
		mine[1] = 31
		step([]*Array{f}, DimsOf(spec[:]...), over(view, dist.BBlockDim(12, 31, 50, 64)))
		if b := d2.DistType().Dims[0].Bounds; b[1] != 30 {
			t.Errorf("rank %d: a held B_BLOCK distribution follows its caller's buffer: %v", rank, b)
		}

		// One expression, two domains.
		step([]*Array{v, w}, rows, over(view, dist.BlockDim(), dist.ElidedDim()))
		step([]*Array{v, w}, cols, over(view, dist.ElidedDim(), dist.BlockDim()))

		// TO sections: one processor array, two halves, and a half built
		// anew (the same mapping on another target object).
		d3 := step([]*Array{f}, block.To(lo), over(lo, dist.BlockDim()))
		step([]*Array{f}, block.To(hi), over(hi, dist.BlockDim()))
		same("TO back", step([]*Array{f}, block.To(lo), over(lo, dist.BlockDim())), d3)
		step([]*Array{f}, block.To(q.Section([3]int{1, 2, 1})), over(lo, dist.BlockDim()))
		step([]*Array{f}, block, over(view, dist.BlockDim()))

		// An extraction follows its source's current distribution.
		d4 := step([]*Array{w}, extract, over(view, dist.ElidedDim(), dist.BlockDim()))
		step([]*Array{b1}, DimsOf(dist.CyclicDim(3)), over(view, dist.CyclicDim(3)))
		step([]*Array{w}, extract, over(view, dist.ElidedDim(), dist.CyclicDim(3)))
		step([]*Array{b1}, block, over(view, dist.BlockDim()))
		same("extraction back", step([]*Array{w}, extract, over(view, dist.ElidedDim(), dist.BlockDim())), d4)

		// An alignment follows its target's current distribution.
		aligned := func(a *Array) *dist.Distribution {
			d, err := dist.Construct(dist.Transpose2D(), qa.DistOf(rank), a.Domain())
			if err != nil {
				t.Error(err)
			}
			return d
		}
		d5 := step([]*Array{p}, align, aligned)
		step([]*Array{qa}, cols, over(view, dist.ElidedDim(), dist.BlockDim()))
		step([]*Array{p}, align, aligned)
		step([]*Array{qa}, rows, over(view, dist.BlockDim(), dist.ElidedDim()))
		same("alignment back", step([]*Array{p}, align, aligned), d5)
		return nil
	})
}

// TestDistributeEpochTarget: after a regroup shrinks the view, the
// target every DISTRIBUTE defaults to is resolved once for the epoch —
// two statements' distributions share one target object, spanning the
// survivors — so resolution matches by target again: going back to a
// mapping the rank holds hands back that object, and resolving it
// allocates nothing.  A mapping of the same expression held over the
// machine's full width is not returned.  (The statement itself allocates on this machine:
// the deadlines the membership machinery needs arm a timer per
// receive.)
func TestDistributeEpochTarget(t *testing.T) {
	cc := msg.RetryPolicy{Timeout: 150 * time.Millisecond, Retries: 2}
	plan := &msg.FaultPlan{Rules: []msg.FaultRule{{Kind: msg.FaultDrop, Rank: 2, Peer: -1, After: 0}}}
	m := machine.New(4,
		machine.WithTransport(msg.NewFaultTransport(msg.NewChanTransport(4), plan)),
		machine.WithRetry(cc))
	defer m.Close()
	e := NewEngine(m)
	rows := DimsOf(dist.BlockDim(), dist.ElidedDim())
	cols := DimsOf(dist.ElidedDim(), dist.BlockDim())
	var allocs float64
	err := m.Run(func(ctx *machine.Ctx) error {
		var err error
		for i := 0; i < 400 && err == nil; i++ {
			time.Sleep(5 * time.Millisecond)
			err = ctx.Barrier()
		}
		if err == nil {
			return errors.New("no revocation observed")
		}
		if rerr := ctx.Regroup(); rerr != nil {
			return rerr // the silenced rank exits with ErrExcluded
		}
		rank := ctx.Rank()
		v, err := e.Declare(ctx, Decl{Name: "V", Domain: index.Dim(24, 24), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.ElidedDim(), dist.BlockDim())}})
		if err != nil {
			return err
		}
		for _, x := range []Expr{rows, cols} {
			if err := e.Distribute(ctx, []*Array{v}, x); err != nil {
				return err
			}
		}
		dc := v.DistOf(rank)
		if err := e.Distribute(ctx, []*Array{v}, rows); err != nil {
			return err
		}
		dr := v.DistOf(rank)
		tg := e.viewTarget(ctx)
		if dc.Target() != tg || dr.Target() != tg {
			t.Errorf("rank %d: epoch %d statements over targets %p and %p, want the epoch's %p", rank, ctx.Epoch(), dc.Target(), dr.Target(), tg)
		}
		if tg.Size() != ctx.NP() || ctx.NP() != 3 {
			t.Errorf("rank %d: view target %v of %d ranks on a %d-rank view, want 3", rank, tg, tg.Size(), ctx.NP())
		}
		back, err := cols.evalFor(ctx, e, v)
		if err != nil {
			return err
		}
		if back != dc {
			t.Errorf("rank %d: (:,BLOCK) resolved to a new object on the shrunken view", rank)
		}
		// A mapping held over the machine's full width is not the view's:
		// the same expression resolves anew over the survivors.
		w, err := e.Declare(ctx, Decl{Name: "W", Domain: index.Dim(24, 24), Dynamic: true,
			Init: &DistSpec{Type: dist.NewType(dist.BlockDim(), dist.ElidedDim()), Target: e.DefaultTarget()}})
		if err != nil {
			return err
		}
		if d, err := rows.evalFor(ctx, e, w); err != nil || d == w.DistOf(rank) || d.Target() != tg {
			t.Errorf("rank %d: (BLOCK,:) on the shrunken view resolved to %v (err %v), held %v", rank, d, err, w.DistOf(rank))
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			allocs = testing.AllocsPerRun(100, func() {
				if _, err := cols.evalFor(ctx, e, v); err != nil {
					t.Error(err)
				}
			})
		}
		return ctx.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 0 {
		t.Errorf("resolving a held mapping on the shrunken view: %.2f allocs, want 0", allocs)
	}
}
