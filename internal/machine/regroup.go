package machine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// ErrEpochRevoked is the typed abort delivered to every operation of a
// membership epoch once a member has been confirmed dead: the epoch
// View's liveness check fails, SendRetry/RecvRetry stop retrying, and
// the collective returns a wrapped ErrEpochRevoked instead of timing
// out peer by peer.  The SPMD body reacts by calling Ctx.Regroup.
var ErrEpochRevoked = errors.New("machine: membership epoch revoked")

// ErrExcluded is returned by Regroup on a rank that the surviving
// membership has voted out (including a rank that observes itself in
// the machine's dead set — the fail-stop contract).  The body
// must return it; Machine.Run treats excluded ranks as expected
// casualties rather than as an SPMD abort.
var ErrExcluded = errors.New("machine: rank excluded from surviving membership")

// regroupBudget is the per-round agreement deadline: generous enough
// that a survivor still unwinding from an aborted epoch-e operation (at
// worst one receive retried to exhaustion, then the probe and self-probe
// its last missed deadline raised) joins the round before anyone
// suspects it.
func (m *Machine) regroupBudget() time.Duration {
	return m.retry.MaxWait() + 2*m.retry.Timeout + 250*time.Millisecond
}

// masks are one agreement round's membership masks over the physical
// ranks, in payload order: suspected dead, pending joins, pending drains.
type masks [3][]bool

// encode packs the masks into a single payload: 3·np ints, dead first,
// joins second, drains last.
func (ms masks) encode() []byte {
	np := len(ms[0])
	bits := make([]int, 3*np)
	for k, mask := range ms {
		for i, b := range mask {
			if b {
				bits[k*np+i] = 1
			}
		}
	}
	return msg.EncodeInts(bits)
}

// decodeMasks unpacks an encode payload over np ranks; ranks the payload
// is too short to cover are unset.
func decodeMasks(data []byte, np int) masks {
	bits := msg.DecodeInts(data)
	var ms masks
	for k := range ms {
		ms[k] = make([]bool, np)
		for i := 0; i < np && k*np+i < len(bits); i++ {
			ms[k][i] = bits[k*np+i] != 0
		}
	}
	return ms
}

// Regroup transitions this rank from membership epoch e to e+1 after a
// member death: survivors agree on the dead set via a coordinator-free
// exchange of suspected-dead bitmasks over the raw (un-viewed)
// transport, wait for the dead members' goroutines to exit, and install
// a compacted epoch-(e+1) view — renumbered ranks, epoch-folded tags, a
// fresh collective sequence.  Stragglers of the revoked epoch can then
// never match a receive of the new one.
//
// On the dead rank itself (the dead set is shared, so a rank sees its
// own death) Regroup returns ErrExcluded, which the body must return.
// Regroup requires a retry Timeout (deaths are confirmed from missed
// deadlines, and a dead rank's goroutine can only unwind through them).
//
// All survivors must call Regroup (SPMD discipline); it is collective
// over the survivor set and ends with a confirmation barrier on the new
// epoch.  Reserved ranks pending in AwaitJoin at the time of the
// regroup are admitted into the new epoch by the same transition, so a
// join racing a concurrent death resolves in one agreement.
func (c *Ctx) Regroup() error {
	return c.transition(transRegroup)
}

// transKind is a membership transition's trigger: what phase 1 must
// confirm before the agreement proceeds.  All three kinds run the same
// combined-mask agreement, so deaths, joins, and drains discovered
// while any transition is underway resolve in that one transition.
type transKind int

const (
	// transRegroup: a member death must be confirmed (Ctx.Regroup).
	transRegroup transKind = iota
	// transAdmit: a pending joiner must exist (Ctx.Admit).
	transAdmit
	// transDrain: a pending voluntary drain must exist (Ctx.Drain).
	transDrain
)

// transition moves this rank from membership epoch e to e+1: survivors
// agree on the dead set, the admitted-joiner set AND the drained set
// via a coordinator-free exchange of (dead, join, drain) bitmask
// triples, wait for the dead members' goroutines to exit, and install a
// compacted epoch-(e+1) view — survivors first in their epoch-e order,
// admitted joiners appended in ascending physical rank.  kind
// distinguishes the entry points: Regroup (a death must be confirmed),
// Admit (a pending joiner must exist), Drain (a pending drain must
// exist); whatever else the masks pick up along the way — deaths
// discovered mid-agreement, joiners registered in time, drains racing a
// death — is resolved by the same decision round.
func (c *Ctx) transition(kind transKind) error {
	m := c.m
	if m.dead == nil {
		return errors.New("machine: Regroup requires a retry Timeout (deaths are confirmed from missed deadlines)")
	}
	myPhys := c.phys[c.rank]
	tr := m.Tracer()
	tr.BeginSpan(myPhys, trace.CatPhase, "regroup")
	defer tr.EndSpan(myPhys, trace.CatPhase, "regroup")

	budget := m.regroupBudget()
	newEpoch := c.epoch + 1
	// The epoch must stay representable in folded wire tags; past the
	// fold capacity a new epoch's traffic would collide with (or
	// wildcard-match) other epochs'.  Fail loudly here, at the membership
	// layer, rather than corrupting tags downstream.
	if err := msg.CheckEpoch(newEpoch); err != nil {
		return fmt.Errorf("machine: transition to epoch %d: %w", newEpoch, err)
	}

	// Phase 1: confirm the transition's trigger.  A Regroup may be
	// entered off any error; unless a member's death is already
	// confirmed, this rank probes every member once, and if none is dead
	// there is nothing to regroup from and the caller's original error
	// stands.  An Admit needs at least one registered joiner; a Drain at
	// least one registered drain candidate.
	switch kind {
	case transRegroup:
		for _, p := range c.phys {
			if p != myPhys && m.dead.firstOf(c.phys) < 0 {
				m.suspect(myPhys, p) //nolint:errcheck // a confirmed death lands in the dead set
			}
		}
		if m.dead.firstOf(c.phys) < 0 {
			return fmt.Errorf("machine: regroup: no member of epoch %d declared dead when probed", c.epoch)
		}
	case transAdmit:
		if len(m.pendingJoiners(c.phys)) == 0 {
			return fmt.Errorf("machine: admit: no joiner registered with epoch %d", c.epoch)
		}
	case transDrain:
		if len(m.pendingDrains(c.phys)) == 0 {
			return fmt.Errorf("machine: drain: no drain registered with epoch %d", c.epoch)
		}
	}
	dead := m.dead.snapshot()
	if dead[myPhys] {
		return fmt.Errorf("machine: physical rank %d: %w", myPhys, ErrExcluded)
	}

	// Phase 2: coordinator-free agreement.  Every candidate repeatedly
	// exchanges its (suspected-dead, pending-join, pending-drain) masks
	// with the other candidates and unions what it hears; a candidate
	// that is confirmed dead while this rank waits for it (recvRound), or
	// misses the round deadline, is itself suspected.  Masks only grow,
	// so the exchange converges: the round in which nothing changed and
	// every peer echoed my exact masks is the decision round — every
	// participant of that round took the same decision from the same
	// masks.
	var ms masks
	for k := range ms {
		ms[k] = make([]bool, m.np)
	}
	suspect, join, drain := ms[0], ms[1], ms[2]
	for _, p := range c.phys {
		suspect[p] = dead[p]
	}
	for _, p := range m.pendingJoiners(c.phys) {
		join[p] = true
	}
	for _, p := range m.pendingDrains(c.phys) {
		drain[p] = true
	}
	ep := m.transport.Endpoint(myPhys)
	converged := false
	for round := 0; round < m.np+2 && !converged; round++ {
		tag := msg.FoldTag(newEpoch, msg.TagMemberBase+round)
		payload := ms.encode()
		mine := decodeMasks(payload, m.np) // the masks as this round sends them
		for _, p := range c.phys {
			if p == myPhys || suspect[p] {
				continue
			}
			if err := ep.Send(p, tag, payload); err != nil {
				return fmt.Errorf("machine: regroup: agreement send to %d: %w", p, err)
			}
		}
		changed, allEqual := false, true
		roundDeadline := time.Now().Add(budget)
		for _, p := range c.phys {
			if p == myPhys || mine[0][p] { // suspected as the round began
				continue
			}
			pkt, err := m.recvRound(ep, myPhys, p, tag, roundDeadline)
			if err != nil {
				if isClosedErr(err) {
					return fmt.Errorf("machine: regroup: agreement recv from %d: %w", p, err)
				}
				if m.dead.firstOf([]int{myPhys}) >= 0 {
					return fmt.Errorf("machine: physical rank %d: %w", myPhys, ErrExcluded)
				}
				suspect[p] = true
				changed = true
				allEqual = false
				continue
			}
			for k, mask := range decodeMasks(pkt.Data, m.np) {
				for r, s := range mask {
					if s != mine[k][r] {
						allEqual = false
					}
					if s && !ms[k][r] {
						ms[k][r] = true
						changed = true
					}
				}
			}
		}
		converged = !changed && allEqual
	}
	if !converged {
		return fmt.Errorf("machine: regroup: agreement did not converge after %d rounds", m.np+2)
	}
	if suspect[myPhys] {
		return fmt.Errorf("machine: physical rank %d: %w", myPhys, ErrExcluded)
	}
	// A rank that limped through the agreement alone (everyone else
	// converged without it) decides a bogus singleton membership; by the
	// time that happens the others have probed it into the dead set.
	// The fail-stop re-check turns that divergence into an exclusion.
	if m.dead.firstOf([]int{myPhys}) >= 0 {
		return fmt.Errorf("machine: physical rank %d: %w", myPhys, ErrExcluded)
	}

	// Drained members: agreed on and still alive (a drain candidate that
	// died mid-agreement is a suspect — the involuntary path wins).  The
	// decision round fixed these masks identically on every participant,
	// so every rank — including the drained one — clears the registry and
	// computes the same shrunken member list.
	var drained []int
	for _, p := range c.phys {
		if drain[p] && !suspect[p] {
			drained = append(drained, p)
		}
	}
	m.drains.remove(drained)
	survivors := make([]int, 0, len(c.phys))
	for _, p := range c.phys {
		if !suspect[p] && !drain[p] {
			survivors = append(survivors, p)
		}
	}
	// Admitted joiners: registered, agreed on, and not themselves
	// declared dead while waiting.  Reserved slots carry the highest
	// physical ranks, so appending them in ascending order keeps the
	// whole member list ascending — and keeps every survivor's view rank
	// unchanged when nobody died.
	isMember := make([]bool, m.np)
	for _, p := range c.phys {
		isMember[p] = true
	}
	var admitted []int
	for p := 0; p < m.np; p++ {
		if join[p] && !suspect[p] && !drain[p] && !isMember[p] && !dead[p] {
			admitted = append(admitted, p)
		}
	}
	members := append(append([]int(nil), survivors...), admitted...)
	if drain[myPhys] {
		// This rank was released by the agreement: it exits here, before
		// the survivors' exit-wait and view install — it neither takes
		// over anyone's slot nor appears in the new epoch's barrier.
		return fmt.Errorf("machine: physical rank %d: %w", myPhys, ErrDrained)
	}
	if len(members) == 0 {
		return fmt.Errorf("machine: transition to epoch %d decided an empty membership", newEpoch)
	}

	// Phase 3: wait for the excluded members' goroutines to exit.  A
	// survivor that takes over a dead member's compacted rank slot will
	// touch per-rank state (array locals, pack buffers) the dead
	// goroutine last wrote; the exit-channel join is the happens-before
	// edge that makes the takeover race-free.  Dead ranks unwind through
	// their receive deadlines, so the wait is bounded by the same retry
	// budget the agreement rounds assume.
	for _, p := range c.phys {
		if !suspect[p] {
			continue
		}
		select {
		case <-m.exits[p]:
		case <-time.After(budget):
			return fmt.Errorf("machine: regroup: excluded rank %d's goroutine still running after %v", p, budget)
		}
	}

	// Phase 4: install the epoch-(e+1) view — compacted survivors plus
	// admitted joiners.
	myView := -1
	for i, p := range members {
		if p == myPhys {
			myView = i
		}
	}
	c.epoch = newEpoch
	c.phys = members
	c.rank = myView
	c.comm = m.epochComm(myPhys, newEpoch, members)
	c.collSeq = 0
	if tr != nil {
		tr.Instant(myPhys, trace.CatPhase, fmt.Sprintf("epoch:%d", newEpoch), myView, int64(len(members)))
	}

	// Welcome the admitted joiners: the new epoch's view rank 0 marks
	// each as engaged (its exit now counts toward run completion) and
	// hands it the member list; every survivor clears them from the
	// pending registry.  The welcome precedes the confirmation barrier,
	// which the joiners take part in.
	if myView == 0 {
		for _, p := range admitted {
			m.run.engage(p)
			if err := ep.Send(p, msg.TagJoinWelcome, msg.EncodeInts(append([]int{newEpoch}, members...))); err != nil {
				return fmt.Errorf("machine: join welcome to %d: %w", p, err)
			}
		}
	}
	m.joins.remove(admitted)

	// Confirmation barrier on the new epoch: every member is present
	// and renumbered before application traffic resumes.
	if err := c.comm.Barrier(); err != nil {
		return fmt.Errorf("machine: regroup: epoch %d confirmation: %w", newEpoch, err)
	}
	return nil
}

// recvRound receives candidate p's masks of one agreement round by the
// round deadline.  Each Timeout missed on the way raises a suspicion of p
// like a retried receive's does, so a member that died unconfirmed is
// confirmed within a probe instead of holding the round to its deadline.
func (m *Machine) recvRound(ep msg.Endpoint, me, p, tag int, deadline time.Time) (msg.Packet, error) {
	for {
		wait := max(min(time.Until(deadline), m.retry.Timeout), time.Millisecond)
		pkt, err := ep.RecvTimeout(p, tag, wait)
		if err == nil || isClosedErr(err) || !time.Now().Before(deadline) {
			return pkt, err
		}
		if err := m.suspect(me, p); err != nil {
			return pkt, err
		}
	}
}
