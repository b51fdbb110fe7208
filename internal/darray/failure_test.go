package darray

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// Failure-injection tests: the runtime must reject misuse loudly rather
// than corrupt distributed state.

func expectRunPanic(t *testing.T, np int, frag string, body func(ctx *machine.Ctx) error) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	err := m.Run(body)
	if err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("expected failure containing %q, got %v", frag, err)
	}
}

func TestGhostOnCyclicRejected(t *testing.T) {
	expectRunPanic(t, 2, "ghost areas need a contiguous", func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.CyclicDim(1)), index.Dim(8), tg)
		New(ctx, "A", index.Dim(8), d, WithGhost(1))
		return nil
	})
}

func TestGhostWidthCountMismatch(t *testing.T) {
	expectRunPanic(t, 2, "ghost widths", func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), index.Dim(8, 8), tg)
		New(ctx, "A", index.Dim(8, 8), d, WithGhost(1)) // rank-2 array, 1 width
		return nil
	})
}

func TestRedistributeDomainMismatch(t *testing.T) {
	expectRunPanic(t, 2, "domain", func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(8), tg)
		a := New(ctx, "A", index.Dim(8), d)
		wrong := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(9), tg)
		return a.RedistributeTo(ctx, wrong)
	})
}

func TestRedistributeNilDistribution(t *testing.T) {
	expectRunPanic(t, 2, "nil distribution", func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(8), tg)
		a := New(ctx, "A", index.Dim(8), d)
		return a.RedistributeTo(ctx, nil)
	})
}

func TestOffsetOutsideAllocationPanics(t *testing.T) {
	expectRunPanic(t, 2, "outside local allocation", func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(8), tg)
		a := New(ctx, "A", index.Dim(8), d)
		l := a.Local(ctx)
		// element owned by the *other* rank, no ghosts allocated
		if ctx.Rank() == 0 {
			l.At(index.Point{8})
		} else {
			l.At(index.Point{1})
		}
		return nil
	})
}

func TestAbortUnblocksPeers(t *testing.T) {
	// One rank panics mid-collective; the other must unwind via the
	// transport shutdown instead of deadlocking (MPI-abort semantics).
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(8), tg)
		a := New(ctx, "A", index.Dim(8), d)
		if ctx.Rank() == 1 {
			panic("injected failure")
		}
		// rank 0 blocks in the collective until the abort propagates
		return a.RedistributeTo(ctx, dist.MustNew(dist.NewType(dist.CyclicDim(1)), index.Dim(8), tg))
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v", err)
	}
}
