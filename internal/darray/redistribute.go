package darray

import (
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/redist"
	"repro/internal/trace"
)

// RedistOption configures a single-array redistribution: NoTransfer or
// MemBudget.  It is a plain value, and a call's options merge into one
// (configOf), so applying them allocates nothing.
type RedistOption struct {
	noTransfer bool
	memBudget  int64
}

// configOf merges a call's options: NOTRANSFER if any asks for it, and
// the last budget given.
func configOf(opts []RedistOption) (c RedistOption) {
	for _, o := range opts {
		c.noTransfer = c.noTransfer || o.noTransfer
		if o.memBudget != 0 {
			c.memBudget = o.memBudget
		}
	}
	return c
}

// NoTransfer requests the paper's NOTRANSFER semantics: "only the access
// function ... is changed and the elements of the array are not
// physically moved".  The new storage is zero-filled except for elements
// the processor already owned, which are kept in place.
func NoTransfer() RedistOption { return RedistOption{noTransfer: true} }

// MemBudget bounds the peak resident wire bytes per rank during the
// redistribution.  The planner decomposes the move into bounded steps
// that fit; if even the finest decomposition exceeds the budget the
// redistribution fails (on every rank symmetrically, before any data
// moves) and the old distribution stays fully readable.  n <= 0 means
// unbounded: one pass of the ring over the whole domain, with no plan.
func MemBudget(n int64) RedistOption { return RedistOption{memBudget: n} }

// RedistributeTo collectively re-associates the array with newD and moves
// the data so that every element keeps its value under the new mapping —
// the executable DISTRIBUTE statement of §2.4 for a single array
// (internal/core moves a connect class through RedistributeClass and
// implements the NOTRANSFER attribute by passing the NoTransfer option).
//
// The implementation follows §3.2.2 step by step: each processor
// evaluates the new distribution, determines the new locations of its
// current local data from the symmetric communication schedule, sends it,
// and receives its new local data.  Ghost areas are reallocated (their
// contents become stale and must be refreshed with ExchangeAllGhosts).
//
// Nothing in it is a global rendezvous.  A processor commits — installs
// its new Local and descriptor — as soon as its own incoming data has
// landed, while peers may still be pulling from its old storage; the
// window keeps offering that storage until the processor's next move
// collects the pullers' done tokens (msg.Window.Settle), and only then is
// it recycled.  A processor that fails returns before committing and
// keeps its old Local and distribution, but peers that completed their
// part have committed theirs: a failed DISTRIBUTE leaves the array
// inconsistent across processors, and recovery replays the last
// checkpoint (core.RunEpochs does, under the apps' step loop).
//
// Every processor must pass the same newD object.  Programmer errors (nil
// or domain-mismatched distribution) panic; transport failures during the
// data exchange are returned as errors wrapping the underlying cause.
func (a *Array) RedistributeTo(ctx *machine.Ctx, newD *dist.Distribution, opts ...RedistOption) error {
	ms := [1]member{{a: a, newD: newD}}
	return moveClass(ctx, ms[:], configOf(opts))
}

// RedistributeClass is RedistributeTo for the members of a connect class
// moving together, arrays[i] to dists[i], the first array being the
// primary: every sender–receiver pair exchanges one message carrying each
// transferring member's segment in class order (§3.2.2 steps 2–3 as one
// communication).  Both ends derive each member's share from the
// schedules they hold, so the message has no header.  Under a MemBudget
// each member moves on its own, so the budget bounds each member's peak.
// A failed class move leaves every member as a failed RedistributeTo
// leaves its array; the error names the first moving member.
func RedistributeClass(ctx *machine.Ctx, arrays []*Array, dists []*dist.Distribution, opts ...RedistOption) error {
	if len(arrays) != len(dists) {
		panic(fmt.Sprintf("darray: class move of %d arrays to %d distributions", len(arrays), len(dists)))
	}
	cfg := configOf(opts)
	// The member list lives in the lead's per-rank storage, reused by its
	// every class move and cleared after it.
	own := &arrays[0].own[ctx.Rank()]
	ms := slices.Grow(own.members[:0], len(arrays))[:len(arrays)]
	own.members = ms
	defer clear(ms)
	for i, a := range arrays {
		ms[i] = member{a: a, newD: dists[i]}
	}
	if cfg.memBudget > 0 {
		for i := range ms {
			if err := moveClass(ctx, ms[i:i+1], cfg); err != nil {
				return err
			}
		}
		return nil
	}
	return moveClass(ctx, ms, cfg)
}

// member is one array's part of a class move: mv is its entry in the
// array's move table and plan the transfer plan of the step being
// executed, nil when that step crosses no boundary of this rank.
type member struct {
	a                  *Array
	oldD, newD         *dist.Distribution
	mv                 *move
	hit                bool
	oldLocal, newLocal *Local
	plan               *xferPlan
}

// move is everything a rank keeps of one DISTRIBUTE between two
// mappings, built by its first run (moveOf) and read by every later one.
type move struct {
	sched redist.Schedule
	// plan is the budget's decomposition, nil without a budget.
	plan *redist.Plan
	// steps are the ring passes: one over the whole domain, or one per
	// panel of plan.  one backs steps for a move without a plan.  The
	// first step's plan also holds the self-copy of sched.LocalKeep.
	steps []moveStep
	one   [1]moveStep
	used  uint64 // the rank's clock at the move's last lookup
}

// moveKey identifies a move structurally: SPMD ranks build their own
// logically-equal Distribution objects, so fingerprints rather than
// pointers key it.  np is part of the key because a schedule enumerates
// peers 0..np-1: after a membership Regroup shrinks the view, a move
// built for the wider epoch would address ranks that no longer exist.
// budget is the MemBudget the move is planned under, 0 for none.
type moveKey struct {
	oldFP, newFP string
	np           int
	budget       int64
}

// moveStep is one ring pass of a move: sched restricted to the step's
// panel, and its transfer plan, built by the step's first run that
// crosses a boundary of this rank.
type moveStep struct {
	sched   *redist.Schedule
	xfer    xferPlan
	planned bool
}

// maxMoves bounds a rank's move table.  Phase-alternating programs (ADI
// bounces between two mappings) cycle through a handful of moves and
// never reach it; a program that moves to fresh bounds at every
// DISTRIBUTE (PIC's rebalancing) misses every time, and its miss
// replaces the least recently used entry, in that entry's storage.
const maxMoves = 16

// moveOf returns rank's move from oldD to newD over np ranks under
// budget (0: none), building it on a miss.  Under a budget a miss plans
// the move (redist.PlanMove), which every rank computes identically from
// the distributions alone, so every rank fails with ErrNoPlan or none
// does.  The table is rank-private: no lock is taken.
func (a *Array) moveOf(rank, np int, oldD, newD *dist.Distribution, budget int64) (mv *move, hit bool, err error) {
	own := &a.own[rank]
	own.clock++
	k := moveKey{oldD.Fingerprint(), newD.Fingerprint(), np, budget}
	if mv := own.moves[k]; mv != nil {
		mv.used = own.clock
		a.hits.Add(1)
		return mv, true, nil
	}
	var plan *redist.Plan
	if budget > 0 {
		if plan, err = redist.PlanMove(oldD, newD, np, redist.PlanOptions{MemBudget: budget}); err != nil {
			return nil, false, err
		}
	}
	if own.moves == nil {
		own.moves = make(map[moveKey]*move)
	}
	if len(own.moves) >= maxMoves {
		var lru moveKey
		for k, e := range own.moves {
			if mv == nil || e.used < mv.used {
				lru, mv = k, e
			}
		}
		delete(own.moves, lru)
	} else {
		mv = &move{}
	}
	mv.sched.Rebuild(oldD, newD, rank, np)
	mv.plan, mv.used = plan, own.clock
	if plan == nil {
		mv.one[0].sched, mv.one[0].planned = &mv.sched, false
		mv.steps = mv.one[:]
	} else {
		mv.steps = make([]moveStep, len(plan.Steps))
		for i := range mv.steps {
			mv.steps[i].sched = plan.StepSchedule(&mv.sched, i)
		}
	}
	own.moves[k] = mv
	a.misses.Add(1)
	return mv, false, nil
}

// moveClass runs the class move of ms: each member settles its window,
// looks its move up and takes its new storage, every self-transfer is
// copied, the remote transfers go in one stepDirect ring, and each member
// commits.  A budget applies to a lone member (RedistributeClass moves a
// class member by member under one): the ring then runs once per panel
// of its plan.  A member already at its new distribution does not move.
func moveClass(ctx *machine.Ctx, ms []member, cfg RedistOption) error {
	rank := ctx.Rank()
	n := 0
	for _, m := range ms {
		if m.newD == nil {
			panic("darray: Redistribute with nil distribution")
		}
		if !m.newD.Domain().Equal(m.a.dom) {
			panic(fmt.Sprintf("darray: %s: new distribution domain %v != array domain %v", m.a.name, m.newD.Domain(), m.a.dom))
		}
		if m.oldD = m.a.Dist(rank); m.oldD == nil || !m.oldD.Equal(m.newD) {
			ms[n] = m
			n++
		} // else a no-op redistribution: nothing moves, descriptor unchanged
	}
	if ms = ms[:n]; n == 0 {
		return nil
	}

	tr := ctx.Tracer()
	prank := ctx.PhysRank() // trace timelines are physical-rank indexed
	for i := range ms {
		ms[i].a.spans()
	}
	lead := ms[0].a
	sp := tr.BeginSpan(prank, trace.CatDistribute, lead.span)
	defer sp.End()

	// Peers of the previous move may still be pulling from the storage
	// each member offered then, which takeLocal is about to recycle.
	for i := range ms {
		if err := ms[i].a.win.Settle(ctx.Comm()); err != nil {
			return fmt.Errorf("darray: %s: redistribution: %w", ms[i].a.name, err)
		}
	}

	// The move runs stepDirect once over the whole domain or, under a
	// memory budget, once per panel of the plan that fits it.  Without a
	// budget none is built — planning builds every rank's schedule, which
	// matters on redistribute-heavy loops.  Every move is looked up before
	// any storage is taken, so a budget no plan fits fails every rank here
	// symmetrically, with the old distribution in place and readable.
	var budget int64
	if cfg.memBudget > 0 && !cfg.noTransfer {
		budget = cfg.memBudget
	}
	for i := range ms {
		m := &ms[i]
		if m.oldD == nil {
			continue
		}
		var psp trace.Span
		if budget > 0 {
			psp = tr.BeginSpan(prank, trace.CatRedist, "redist:plan")
		}
		var err error
		m.mv, m.hit, err = m.a.moveOf(rank, ctx.NP(), m.oldD, m.newD, budget)
		psp.End()
		if err != nil {
			return fmt.Errorf("darray: %s: redistribution planning: %w", m.a.name, err)
		}
	}
	n = 0
	for i, m := range ms {
		// A secondary's own span holds its share of the setup; the wire
		// traffic is the class's and lands in the lead's.
		var msp trace.Span
		if i > 0 {
			msp = tr.BeginSpan(prank, trace.CatDistribute, m.a.span)
		}
		a := m.a
		m.newLocal = a.takeLocal(rank, m.newD, m.oldD != nil && !cfg.noTransfer)
		if m.oldD == nil {
			a.commit(rank, m.newD, m.newLocal) // first association: no data to move
			msp.End()
			continue
		}
		m.oldLocal = a.locals[rank]
		sched := &m.mv.sched
		schedEv := "sched:miss"
		if m.hit {
			schedEv = "sched:hit"
		}
		// What this rank already holds of its new part — under
		// NOTRANSFER all it keeps — never touches the wire: copy it whole
		// before the ring (still only into the uncommitted newLocal).
		if st := &m.mv.steps[0]; !st.planned {
			a.planTransfers(&st.xfer, m.oldD, st.sched, sched.LocalKeep, ctx.NP(), m.oldLocal, m.newLocal)
			st.planned = true
		}
		m.mv.steps[0].xfer.keep.copy(m.newLocal.data, m.oldLocal.data)
		if cfg.noTransfer {
			tr.Instant(prank, trace.CatDistribute, schedEv, -1, 0)
			a.commit(rank, m.newD, m.newLocal)
			a.retireLocal(rank, m.oldD, m.oldLocal)
			msp.End()
			continue
		}
		tr.Instant(prank, trace.CatDistribute, schedEv, -1, int64(sched.SendBytes()))
		ms[n] = m
		n++
		msp.End()
	}
	if ms = ms[:n]; n == 0 {
		return nil
	}
	lead = ms[0].a
	steps, planEv, peak := len(ms[0].mv.steps), "plan:direct", int64(-1)
	if p := ms[0].mv.plan; p != nil {
		planEv, peak = "plan:"+p.Kind, p.PeakBytes
	}
	tr.Instant(prank, trace.CatRedist, planEv, -1, peak)
	for k := 0; k < steps; k++ {
		ssp := tr.BeginSpan(prank, trace.CatRedist, "redist:step")
		err := stepDirect(ctx, ms, k)
		ssp.End()
		if err != nil {
			return fmt.Errorf("darray: %s: redistribution step %d/%d: %w", lead.name, k+1, steps, err)
		}
	}

	// Every transfer into each newLocal has landed: the ring returned only
	// after this rank's last pull or unpack.  Commit without waiting for
	// the peers still pulling from the old storage — each window keeps
	// offering it until this rank's next Settle of that window.
	for _, m := range ms {
		m.a.commit(rank, m.newD, m.newLocal)
		m.a.retireLocal(rank, m.oldD, m.oldLocal)
	}
	return nil
}

// commit makes l and d this rank's storage and descriptor: l becomes the
// storage its ghost awaits apply into, and its next ghost exchange builds
// a plan for d.  No neighbour is told: a face put before or after the
// neighbour's own commit lands at the neighbour's matching await, in
// whatever storage the neighbour has committed by then.
func (a *Array) commit(rank int, d *dist.Distribution, l *Local) {
	a.locals[rank] = l
	a.win.Register(rank, l.data)
	own := &a.own[rank]
	if old := own.dst.Load(); old != d {
		own.left = old
	}
	own.dst.Store(d)
	own.epoc++
}

// redistSubtag is the window stream a DISTRIBUTE's offers travel on; the
// ghost exchange owns the subtags below it.
const redistSubtag = msg.MaxSubtag

// xfer is one transfer of a schedule: its grid's rects (appendRects) in
// the sender's old storage (src) and, on the receiver, in its new
// storage (dst; a remote sender needs none).  A peer with no transfer
// has no rects; a self-copy (move.keep) is both ends on one rank.
type xfer struct {
	src, dst []msg.Rect
}

// xferPlan is a schedule's remote transfers indexed by peer and a move's
// self-copy (keep, on its first step), carved from rects and dims.
type xferPlan struct {
	send, recv []xfer // carved from xs
	xs         []xfer
	keep       xfer
	rects      []msg.Rect
	dims       []msg.RectDim
}

// hasRemote reports whether any transfer of s crosses ranks.
func hasRemote(s *redist.Schedule) bool {
	for _, ts := range [2][]redist.Transfer{s.Sends, s.Recvs} {
		for i := range ts {
			if ts[i].Peer != s.Rank {
				return true
			}
		}
	}
	return false
}

// planTransfers lays the self-copy of keep and sched's remote transfers
// (per peer, with their window rects) out in p's storage, sized once.
// The peer's side comes from the descriptor (lay), never from the peer's
// Local.  It runs once per step of a move: the result is kept in the
// move's entry, so a warm DISTRIBUTE builds no geometry.
func (a *Array) planTransfers(p *xferPlan, oldD *dist.Distribution, sched *redist.Schedule, keep index.Grid, np int, oldLocal, newLocal *Local) {
	rank, own := sched.Rank, &a.own[sched.Rank]
	// One backing array for every rect and one for their dimensions: a
	// src and a dst per kept rect and per receive, a src per send.
	n := 0
	if !keep.Empty() {
		n = 2 * rectCount(keep)
	}
	for _, t := range sched.Sends {
		if t.Peer != rank {
			n += rectCount(t.Grid)
		}
	}
	for _, t := range sched.Recvs {
		if t.Peer != rank {
			n += 2 * rectCount(t.Grid)
		}
	}
	if r := a.dom.Rank(); cap(p.xs) < 2*np || cap(p.rects) < n || cap(p.dims) < n*r {
		p.xs, p.rects, p.dims = make([]xfer, 2*np), make([]msg.Rect, 0, n), make([]msg.RectDim, 0, n*r)
	}
	xs, rects, dims := p.xs[:2*np], p.rects[:0], p.dims[:0]
	clear(xs)
	p.send, p.recv = xs[:np], xs[np:]
	take := func(l *layout, g index.Grid) []msg.Rect {
		lo := len(rects)
		rects, dims = l.appendRects(rects, dims, g)
		return rects[lo:len(rects):len(rects)]
	}
	p.keep = xfer{}
	if !keep.Empty() {
		p.keep = xfer{src: take(&oldLocal.layout, keep), dst: take(&newLocal.layout, keep)}
	}
	for _, t := range sched.Sends {
		if t.Peer != rank {
			p.send[t.Peer].src = take(&oldLocal.layout, t.Grid)
		}
	}
	for _, t := range sched.Recvs {
		if t.Peer != rank {
			a.lay(&own.peer, t.Peer, oldD)
			x := &p.recv[t.Peer]
			x.src, x.dst = take(&own.peer, t.Grid), take(&newLocal.layout, t.Grid)
		}
	}
	p.rects, p.dims = rects, dims
}

// stepDirect executes one step of a class move in one pass of the
// staggered ring — DISTRIBUTE's one executor, run once per step of the
// plan: each round offers this rank's transfer to one peer and pulls its
// transfer from another, one message each way carrying every member's
// rects for that pair in class order (Offer/Pull on the lead's stream),
// so at most one outgoing and one incoming transfer are resident at a
// time (the peak redist.PlanMove models for a lone member).  On shared
// memory the receiver copies each rect straight out of its member's old
// storage into that member's unpublished new Local, a single copy with
// nothing resident on the wire; on other transports the rects travel in
// one frame written straight from the old storage's runs.  A sender's
// old Locals stay untouched until its next move's Settle of each member
// window has every puller's done token.
func stepDirect(ctx *machine.Ctx, ms []member, k int) error {
	rank, np := ctx.Rank(), ctx.NP()
	remote := false
	for i := range ms {
		m := &ms[i]
		// A step that crosses no boundary of this rank (a DISTRIBUTE that
		// only renames the mapping, PIC's first balance) needs no plan: no
		// peer offers to it or pulls from it.
		s := &m.mv.steps[k]
		m.plan = nil
		if hasRemote(s.sched) {
			if !s.planned {
				m.a.planTransfers(&s.xfer, m.oldD, s.sched, index.Grid{}, np, m.oldLocal, m.newLocal)
				s.planned = true
			}
			m.plan, remote = &s.xfer, true
		}
	}
	if !remote {
		return nil
	}
	own := &ms[0].a.own[rank]
	win, c := ms[0].a.win, ctx.Comm()
	return c.Ring(func(to, from int) error {
		if shares := own.sharesOf(ms, to, true); len(shares) > 0 {
			if err := win.Offer(c, to, redistSubtag, shares); err != nil {
				return err
			}
		}
		if shares := own.sharesOf(ms, from, false); len(shares) > 0 {
			return win.Pull(c, from, redistSubtag, shares)
		}
		return nil
	})
}

// sharesOf lists the members' rects to (send) or from (!send) peer as
// one offer's shares, in the rank's recycled share list.  Both ends of a
// pair build it from the same schedules and layouts, so they agree share
// by share.
func (b *rankState) sharesOf(ms []member, peer int, send bool) []msg.Share {
	b.shares = b.shares[:0]
	for i := range ms {
		m := &ms[i]
		if m.plan == nil {
			continue
		}
		if send {
			for _, src := range m.plan.send[peer].src {
				b.shares = append(b.shares, msg.Share{Win: m.a.win, Src: src})
			}
			continue
		}
		x := &m.plan.recv[peer]
		for j, src := range x.src {
			b.shares = append(b.shares, msg.Share{Win: m.a.win, Src: src, Dst: m.newLocal.data, Dr: x.dst[j]})
		}
	}
	return b.shares
}

// ScheduleCacheStats returns (hits, misses) of the ranks' move tables,
// summed over ranks — phase-alternating programs should show hits after
// the first iteration.
func (a *Array) ScheduleCacheStats() (hits, misses int) {
	return int(a.hits.Load()), int(a.misses.Load())
}
