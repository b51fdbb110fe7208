package core

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Resize is the error a RunEpochs body returns — after committing a
// checkpoint, at a boundary every member reaches with the same decision
// — to ask for a voluntary membership transition: Drain >= 0 removes
// that view rank from the membership (straggler mitigation), Drain < 0
// admits the reserved ranks waiting to join.
type Resize struct{ Drain int }

// Grow is the Resize that admits the pending joiners.
var Grow = &Resize{Drain: -1}

func (r *Resize) Error() string {
	if r.Drain < 0 {
		return "core: grow onto the pending joiners"
	}
	return fmt.Sprintf("core: drain view rank %d (straggler mitigation)", r.Drain)
}

// RunEpochs runs body once per membership epoch until it succeeds, and
// is the only caller of the machine's epoch transitions.  body declares
// its arrays on eng and runs the program; replay reports that this is
// not the first attempt, so the body must resume from the last committed
// checkpoint (Engine.Recover) instead of its initial values.
//
// A body that returns a *Resize gets the transition it asks for:
// Ctx.Drain (the drained rank leaves here with ErrDrained, which
// Machine.Run treats as a non-fatal exit) or Ctx.Admit.  With
// recoverLost, any other body error is taken to mean a member was lost:
// the survivors Regroup onto the next epoch.  The rank a regroup
// excludes, and any rank that has failed max(NP, 2) attempts, returns
// its error instead.  After every transition the members — and the
// admitted joiners, which enter through their own arm: park in
// AwaitJoin, then build the grown epoch's engine together with the
// members — share a fresh engine (the old one's arrays are bound to the
// revoked epoch's rank numbering) carrying the old engine's memory
// budget and checkpoint I/O options, and re-enter body with replay set.
// A joiner that is never admitted returns ErrNeverJoined, also
// non-fatal.
func RunEpochs(ctx *machine.Ctx, eng *Engine, recoverLost bool, body func(eng *Engine, replay bool) error) error {
	m, budget, ckptOpts := eng.Machine(), eng.MemBudgetDefault(), eng.CkptOptions()
	freshEngine := func() *Engine {
		e := ctx.CollectiveOnce(func() any { return NewEngine(m) }).(*Engine)
		e.SetMemBudget(budget)
		e.SetCkptOptions(ckptOpts)
		return e
	}
	replay := false
	if ctx.Reserved() {
		if err := ctx.AwaitJoin(); err != nil {
			return err
		}
		eng, replay = freshEngine(), true
	}
	var rz *Resize
	for attempt := 1; ; attempt++ {
		err := body(eng, replay)
		switch {
		case errors.As(err, &rz) && rz.Drain < 0:
			err = ctx.Admit()
		case errors.As(err, &rz):
			err = ctx.Drain(rz.Drain)
		case err == nil || !recoverLost || errors.Is(err, machine.ErrExcluded) || attempt >= max(m.NP(), 2):
			return err
		default:
			err = ctx.Regroup()
		}
		if err != nil {
			return err
		}
		eng, replay = freshEngine(), true
	}
}
