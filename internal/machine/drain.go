package machine

import (
	"errors"
	"fmt"
)

// This file is the *voluntary* scale-IN half of the membership layer —
// the inverse of join.go's scale-OUT.  Where a Regroup shrinks an epoch
// because a member died, a *drain* shrinks it because the members
// decided a rank should leave: a persistent straggler the health scorer
// flagged, a node the operator wants back.  The drained rank is alive
// the whole time — it participates in the agreement (and in whatever
// collective checkpoint/handoff the application runs beforehand), then
// exits non-fatally with ErrDrained while the survivors install the
// shrunken view.

// ErrDrained is returned by Ctx.Drain on the rank the membership agreed
// to drain: it has been handed off cleanly and must now exit by
// returning this error from the SPMD body.  It wraps ErrExcluded, so
// Machine.Run treats the drained rank as an expected departure — not an
// SPMD abort — exactly like a rank voted out by a Regroup.
var ErrDrained = fmt.Errorf("machine: rank voluntarily drained from membership: %w", ErrExcluded)

// pendingDrains returns the registered drain candidates that an epoch
// whose member set is phys could actually release: current members, not
// already declared dead (a dead rank is the Regroup path's business).
func (m *Machine) pendingDrains(phys []int) []int {
	if m.drains == nil {
		return nil
	}
	isMember := make(map[int]bool, len(phys))
	for _, p := range phys {
		isMember[p] = true
	}
	dead := m.dead.snapshot()
	var out []int
	for _, p := range m.drains.snapshot() {
		if isMember[p] && !dead[p] {
			out = append(out, p)
		}
	}
	return out
}

// Drain transitions the current epoch's members to epoch e+1 *without*
// the member at viewRank: the voluntary scale-IN mirror of Admit.  It
// is collective over the member set — every member (including the one
// being drained) calls Drain with the same view rank at the same point,
// typically right after a collective checkpoint so the survivors can
// restore the drained rank's data onto the shrunken view.
//
// The transition runs over the same combined-mask agreement as Regroup
// and Admit, so a drain racing a concurrent real death (or a pending
// join) resolves in ONE epoch transition: the dead rank is excluded,
// the joiner admitted, and the drained rank released, all by the same
// decision round.
//
// On the drained rank Drain returns ErrDrained, which the body must
// return; Machine.Run treats it as a non-fatal departure.  On the
// survivors Drain returns nil with the epoch-(e+1) view installed.
func (c *Ctx) Drain(viewRank int) error {
	m := c.m
	if c.reserved {
		return errors.New("machine: Drain on a reserved rank (it has no membership to leave)")
	}
	if m.dead == nil {
		return errors.New("machine: Drain requires a retry Timeout (drain transitions run over the membership machinery)")
	}
	if viewRank < 0 || viewRank >= len(c.phys) {
		return fmt.Errorf("machine: Drain(%d): no such view rank in epoch %d (NP=%d)", viewRank, c.epoch, len(c.phys))
	}
	if len(c.phys) <= 1 {
		return errors.New("machine: Drain would empty the membership")
	}
	m.drains.add(c.phys[viewRank])
	return c.transition(transDrain)
}
