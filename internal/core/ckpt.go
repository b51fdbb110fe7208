package core

import (
	"fmt"
	"strconv"

	"repro/internal/ckpt"
	"repro/internal/darray"
	"repro/internal/machine"
)

// Checkpoint writes one coordinated checkpoint epoch of every currently
// distributed array in the scope to dir (collective; traced as its own
// "checkpoint" phase).  meta (may be nil) is stored in the manifest for
// the recovering run — by convention the interpreter and the apps store
// the iteration counter under "iter".  Arrays not yet associated with a
// distribution are skipped: before its first DISTRIBUTE an array holds
// no committed data.  It returns the committed epoch number.
func (e *Engine) Checkpoint(ctx *machine.Ctx, dir string, meta map[string]string) (int, error) {
	ctx.PhaseBegin("checkpoint")
	defer ctx.PhaseEnd("checkpoint")
	var das []*darray.Array
	for _, a := range e.Arrays() {
		if a.Distributed(ctx.Rank()) {
			das = append(das, a.DArray())
		}
	}
	if len(das) == 0 {
		return -1, fmt.Errorf("core: checkpoint: no distributed arrays in scope")
	}
	epoch, err := ckpt.SaveOpts(ctx, dir, das, meta, e.CkptOptions())
	if err != nil {
		return -1, fmt.Errorf("core: checkpoint to %s: %w", dir, err)
	}
	return epoch, nil
}

// CheckpointIter is Checkpoint with the iteration counter stored under
// the conventional "iter" meta key.
func (e *Engine) CheckpointIter(ctx *machine.Ctx, dir string, iter int) (int, error) {
	return e.Checkpoint(ctx, dir, map[string]string{"iter": strconv.Itoa(iter)})
}

// Restore fills the scope's arrays from the latest committed checkpoint
// epoch in dir (collective; traced as its own "restore" phase).  Every
// checkpointed array must be declared in this scope with the same
// domain; each is re-associated with the restored (possibly shrunken)
// distribution and refilled, and arrays with ghost regions get a ghost
// exchange so stencil code can resume immediately.  The manifest is
// returned so the caller can read back its Meta (e.g. the iteration to
// resume from).
func (e *Engine) Restore(ctx *machine.Ctx, dir string) (*ckpt.Manifest, error) {
	ctx.PhaseBegin("restore")
	defer ctx.PhaseEnd("restore")
	var das []*darray.Array
	for _, a := range e.Arrays() {
		das = append(das, a.DArray())
	}
	res, err := ckpt.RestoreOpts(ctx, dir, das, e.CkptOptions())
	if err != nil {
		return nil, fmt.Errorf("core: restore from %s: %w", dir, err)
	}
	for _, a := range e.Arrays() {
		if !a.Distributed(ctx.Rank()) {
			continue
		}
		if err := a.ExchangeAllGhosts(ctx); err != nil {
			return nil, fmt.Errorf("core: restore: ghost refresh of %s: %w", a.Name(), err)
		}
	}
	return res.Manifest, nil
}

// Recover is the in-process arm of failure recovery: called on the
// survivors of a Ctx.Regroup, it restores the last committed checkpoint
// epoch from dir onto the regrouped processor view — the recorded
// distributions are replayed and shrunk onto the compacted survivor
// numbering, array payloads are refilled from disk over the live epoch
// Comm, and ghost regions are re-exchanged — so the iteration loop can
// resume within the same Run.  It is Restore under a "recover" trace
// phase; the distinction is the caller's contract (a live regrouped
// machine, not a fresh relaunch).
func (e *Engine) Recover(ctx *machine.Ctx, dir string) (*ckpt.Manifest, error) {
	ctx.PhaseBegin("recover")
	defer ctx.PhaseEnd("recover")
	man, err := e.Restore(ctx, dir)
	if err != nil {
		return nil, fmt.Errorf("core: online recovery (epoch %d, np %d): %w", ctx.Epoch(), ctx.NP(), err)
	}
	return man, nil
}
