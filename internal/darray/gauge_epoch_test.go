package darray

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestWireGaugeCrossEpoch: after a regroup renumbers the view, wire
// gauges (and the cost/trace attribution beside them) must land on
// *physical* rank slots.  Before the fix, the epoch-1 survivor with
// view rank 2 (physical rank 3) charged its redistribution residency to
// slot 2 — the dead rank — so per-rank budget verification read zero
// for a rank that was busy and nonzero for a corpse.
func TestWireGaugeCrossEpoch(t *testing.T) {
	cc := msg.RetryPolicy{Timeout: 150 * time.Millisecond, Retries: 2}
	plan := &msg.FaultPlan{Rules: []msg.FaultRule{{Kind: msg.FaultDrop, Rank: 2, Peer: -1, After: 0}}}
	m := machine.New(4,
		machine.WithTransport(msg.NewFaultTransport(msg.NewChanTransport(4), plan)),
		machine.WithRetry(cc))
	defer m.Close()
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
			return rerr // the killed rank exits with ErrExcluded
		}
		// Epoch 1, survivors [0 1 3] renumbered to views [0 1 2].  A
		// budgeted redistribution must charge residency to the physical
		// slots of the survivors.  BLOCK -> CYCLIC(2) over 48 elements
		// gives every transfer several runs, so on this shared-memory
		// transport each one travels packed and is metered (a rect would
		// be pulled with no wire residency at all).
		dom := index.Dim(48)
		tg := m.ProcsDim("PG", 3).Whole()
		a := New(ctx, "G", dom, dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg))
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		if err := ctx.Barrier(); err != nil {
			return err
		}
		newD := dist.MustNew(dist.NewType(dist.CyclicDim(2)), dom, tg)
		return a.RedistributeTo(ctx, newD, MemBudget(1<<20))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := m.Stats()
	if got := st.PeakWireBytesRank(2); got != 0 {
		t.Errorf("dead physical rank 2 charged %d wire bytes (view-rank misattribution)", got)
	}
	if got := st.PeakWireBytesRank(3); got == 0 {
		t.Error("surviving physical rank 3 (view rank 2) charged no wire bytes")
	}
	for _, p := range []int{0, 1} {
		if st.PeakWireBytesRank(p) == 0 {
			t.Errorf("surviving physical rank %d charged no wire bytes", p)
		}
	}
}
