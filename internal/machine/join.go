package machine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/msg"
	"repro/internal/trace"
)

// This file is the scale-OUT half of the membership layer: where
// regroup.go shrinks an epoch after a death, a *join* grows it.  A
// reserved rank (WithReserve) registers itself and parks in AwaitJoin;
// the active members agree — over the same coordinator-free mask
// exchange a Regroup uses — to admit it, transition to epoch e+1 with a
// larger compacted numbering, and the new epoch's rank 0 hands the
// joiner its view.  The in-process registry plays the role a listening
// socket would in a distributed deployment: registration is the "dial".

// ErrNeverJoined is returned by AwaitJoin on a reserved rank that was
// still unadmitted when the run's engaged ranks all finished (or the
// transport shut down).  It wraps ErrExcluded, so Machine.Run treats
// the rank as an expected casualty, not an SPMD abort.
var ErrNeverJoined = fmt.Errorf("machine: reserved rank was never admitted: %w", ErrExcluded)

// joinReg is the machine-shared registry of reserved ranks waiting to
// be admitted.  Like the dead set it is deliberately
// in-process-shared state: the analogue of a membership service's
// connection table, not something the paper's static-processor model
// provides.
type joinReg struct {
	mu      sync.Mutex
	pending map[int]bool // physical rank -> registered
}

func newJoinReg() *joinReg {
	return &joinReg{pending: make(map[int]bool)}
}

func (j *joinReg) add(p int) {
	j.mu.Lock()
	j.pending[p] = true
	j.mu.Unlock()
}

func (j *joinReg) remove(ps []int) {
	j.mu.Lock()
	for _, p := range ps {
		delete(j.pending, p)
	}
	j.mu.Unlock()
}

func (j *joinReg) snapshot() []int {
	j.mu.Lock()
	out := make([]int, 0, len(j.pending))
	for p := range j.pending {
		out = append(out, p)
	}
	j.mu.Unlock()
	sort.Ints(out)
	return out
}

// pendingJoiners returns the registered reserved ranks that could be
// admitted into an epoch whose member set is phys: not already members,
// not declared dead.
func (m *Machine) pendingJoiners(phys []int) []int {
	if m.joins == nil {
		return nil
	}
	isMember := make(map[int]bool, len(phys))
	for _, p := range phys {
		isMember[p] = true
	}
	dead := m.dead.snapshot()
	var out []int
	for _, p := range m.joins.snapshot() {
		if !isMember[p] && !dead[p] {
			out = append(out, p)
		}
	}
	return out
}

// AwaitJoin registers this reserved rank with the machine and blocks
// until an active member admits it into a membership epoch (Ctx.Admit,
// or a Ctx.Regroup that found it pending).  On admission the Ctx holds
// the new epoch's view — renumbered rank, epoch-folded tags, fresh
// collective sequence — and AwaitJoin returns after the epoch's
// confirmation barrier, so the joiner is fully synchronized with the
// members before the body resumes SPMD execution.
//
// If the run ends without an admission (all engaged ranks returned, or
// the transport closed under an abort), AwaitJoin returns
// ErrNeverJoined, which the body should return; Machine.Run treats it
// as a non-fatal exit.
func (c *Ctx) AwaitJoin() error {
	m := c.m
	if !c.reserved {
		return errors.New("machine: AwaitJoin on a non-reserved rank")
	}
	if m.retry.Timeout <= 0 {
		return errors.New("machine: AwaitJoin requires a retry Timeout (the same machinery Regroup needs)")
	}
	myPhys := c.rank
	tr := m.Tracer()
	tr.BeginSpan(myPhys, trace.CatPhase, "await-join")
	defer tr.EndSpan(myPhys, trace.CatPhase, "await-join")

	m.joins.add(myPhys)
	ep := m.transport.Endpoint(myPhys)
	for {
		pkt, err := ep.RecvTimeout(msg.AnySource, msg.TagJoinWelcome, m.retry.Timeout)
		switch {
		case err == nil:
			vals := msg.DecodeInts(pkt.Data)
			if len(vals) < 2 {
				return fmt.Errorf("machine: rank %d: malformed join welcome (%d values)", myPhys, len(vals))
			}
			epoch, members := vals[0], vals[1:]
			myView := -1
			for i, p := range members {
				if p == myPhys {
					myView = i
				}
			}
			if myView < 0 {
				return fmt.Errorf("machine: rank %d: join welcome for epoch %d does not include me (members %v)", myPhys, epoch, members)
			}
			c.epoch = epoch
			c.phys = members
			c.rank = myView
			c.reserved = false
			c.comm = m.epochComm(myPhys, epoch, members)
			c.collSeq = 0
			if tr != nil {
				tr.Instant(myPhys, trace.CatPhase, fmt.Sprintf("epoch:%d", epoch), myView, int64(len(members)))
			}
			// The members are inside the transition's confirmation
			// barrier; joining it completes the admission.
			if err := c.comm.Barrier(); err != nil {
				return fmt.Errorf("machine: join: epoch %d confirmation: %w", epoch, err)
			}
			return nil
		case isClosedErr(err):
			// An SPMD abort tore the transport down before anyone
			// admitted us.
			return fmt.Errorf("machine: rank %d: %w", myPhys, ErrNeverJoined)
		}
		select {
		case <-m.run.stop:
			// Every engaged rank has returned: the run is over and no
			// admission can happen anymore.
			m.joins.remove([]int{myPhys})
			return fmt.Errorf("machine: rank %d: %w", myPhys, ErrNeverJoined)
		default:
		}
	}
}

// Admit transitions the current epoch's members to epoch e+1 that
// additionally contains every reserved rank registered in AwaitJoin —
// the scale-out mirror of Regroup.  It is collective over the member
// set (use PollJoin to take the admit decision at the same point on
// every rank) and tolerates deaths discovered during the agreement: a
// member that dies mid-admission is excluded by the same transition.
// With no joiner registered Admit returns an error and the epoch-e view
// stays fully operational.
func (c *Ctx) Admit() error {
	if c.reserved {
		return errors.New("machine: Admit on a reserved rank (call AwaitJoin)")
	}
	return c.transition(transAdmit)
}

// PollJoin reports, identically on every member of the current epoch,
// whether at least one reserved rank is waiting to join.  The answer is
// agreed over a small collective so every member takes the same
// grow/hold decision at the same iteration boundary — ranks polling the
// shared registry directly could diverge by a registration race, with
// half the members entering Admit and the other half proceeding.
func (c *Ctx) PollJoin() (bool, error) {
	mine := 0
	if len(c.m.pendingJoiners(c.phys)) > 0 {
		mine = 1
	}
	out, err := c.comm.AllreduceInts([]int{mine}, msg.MaxInt)
	if err != nil {
		return false, err
	}
	return out[0] > 0, nil
}
