// Package redist computes communication schedules for the executable
// DISTRIBUTE statement (paper §2.4, implementation §3.2.2): "Each
// processor determines the new locations of current local data, sends it
// to the new locations, and receives data from other processors."
//
// A schedule is computed symmetrically on every processor from the old
// and new distributions alone — no coordination messages are needed.  Per
// peer, the transfer set is the intersection of "what I own now" with
// "what the peer will own", which is a per-dimension intersection of
// strided-run sets (index.Grid), and the peers are found by owner
// arithmetic, not by trying every rank: dist's owner rule bounds the
// coordinates that can own a piece of the rank's runs (under B_BLOCK,
// only the overlapping neighbours).  This is the "run time optimization
// of communication related to dynamic array references" of §3.2:
// schedules never enumerate elements to discover owners.  The package
// remembers nothing; darray keeps each rank's moves, keyed by the (old,
// new) distribution pair, and rebuilds an evicted one in place.
package redist

import (
	"slices"

	"repro/internal/dist"
	"repro/internal/index"
)

// Transfer describes one peer's part of a redistribution on a given rank.
type Transfer struct {
	// Peer is the other processor's rank.
	Peer int
	// Grid is the set of global indices to move, in canonical
	// (column-major RunSet enumeration) order, identical on both ends.
	Grid index.Grid
	// Count caches Grid.Count().
	Count int
}

// Schedule is one rank's plan for a redistribution.
type Schedule struct {
	// Rank is the processor this schedule belongs to.
	Rank int
	// Sends lists outgoing transfers (data I own under the old
	// distribution that peers own under the new one).  Only primary
	// owners send; a primary's self-transfer (Peer == Rank) is included.
	Sends []Transfer
	// Recvs lists incoming transfers.  Under a replicated new
	// distribution every replica receives its copy.
	Recvs []Transfer
	// LocalKeep is what the rank already holds of its new part (old ∩
	// new), on every holder; on a primary it is the grid of the Peer ==
	// Rank entries.  The executor copies it locally.
	LocalKeep index.Grid

	w work
}

// SendBytes returns the payload bytes this rank sends to remote peers
// (8 bytes per element, excluding the local copy).
func (s *Schedule) SendBytes() int {
	n := 0
	for _, t := range s.Sends {
		if t.Peer != s.Rank {
			n += 8 * t.Count
		}
	}
	return n
}

// Build computes rank's schedule for redistributing from oldD to newD.
// Both distributions must cover the same index domain.  np is the
// transport size: peers, listed in ascending order, are ranks 0..np-1,
// and a rank outside a distribution's target simply owns nothing.
//
// Under a replicated old distribution only primaries send, and no
// transfer runs between two holders of the same replica group — ranks
// whose old grids meet hold the same elements, so each already has what
// the other would send it.  Every holder keeps its own overlap
// (LocalKeep); a non-primary's shows in no Sends or Recvs entry.
// Without replication no two old grids meet, so the rule changes
// nothing.
func Build(oldD, newD *dist.Distribution, rank, np int) *Schedule {
	s := new(Schedule)
	s.Rebuild(oldD, newD, rank, np)
	return s
}

// Rebuild makes s rank's schedule from oldD to newD, as Build does, in
// s's own storage, sized once for the pair (size): once s has held a
// schedule as large, it allocates nothing.  It overwrites s's grids.
func (s *Schedule) Rebuild(oldD, newD *dist.Distribution, rank, np int) {
	w := &s.w
	w.size(oldD, newD, np)
	s.Rank, s.Sends, s.Recvs, s.LocalKeep = rank, w.ts[:0:np], w.ts[np:np:2*np], index.Grid{}
	var myOld, myNew index.Grid
	myOld, w.runs = oldD.LocalGridInto(w.grid(oldD.Domain().Rank()), w.runs, rank)
	myNew, w.runs = newD.LocalGridInto(w.grid(newD.Domain().Rank()), w.runs, rank)
	s.LocalKeep = w.and(myOld, myNew)
	if !myOld.Empty() {
		for _, rs := range myOld.Dims {
			w.first = append(w.first, rs[0].Lo)
		}
	}
	// A peer of rank's replica group owns a point rank holds.
	group := func(peer int) bool {
		return oldD.Replicated() && peer != rank && len(w.first) > 0 && oldD.IsLocal(peer, w.first)
	}
	if oldD.IsPrimaryRank(rank) && !myOld.Empty() {
		s.Sends = w.transfers(s.Sends, myOld, newD, false, np, group)
	}
	if !myNew.Empty() {
		s.Recvs = w.transfers(s.Recvs, myNew, oldD, true, np, group)
	}
}

// work is a schedule's storage: runs and sets back its grids and ts its
// transfers; the rest is scratch, in inl up to 8 target dimensions.
type work struct {
	runs, tmp      []index.Run
	sets           []index.RunSet
	hold           index.Grid
	first          index.Point
	coords, lo, hi []int
	runBuf         []index.Run
	setBuf         []index.RunSet
	ts             []Transfer
	inl            [32]int
}

// size makes w's arrays hold the largest schedule from oldD to newD over
// np peers — two local grids, their intersection and np transfers each
// way, of at most both sides' runs multiplied (MaxRuns) — and carves w.
func (w *work) size(oldD, newD *dist.Distribution, np int) {
	r, ro, rn, cross := oldD.Domain().Rank(), 0, 0, 0
	for k := range r {
		a, b := oldD.MaxRuns(k), newD.MaxRuns(k)
		ro, rn, cross = ro+a, rn+b, cross+a*b
	}
	nr, nh, ns := ro+rn+(1+2*np)*cross, max(ro, rn), (3+2*np)*r
	if cap(w.runBuf) < nr+nh || cap(w.setBuf) < ns+r || cap(w.ts) < 2*np {
		w.runBuf, w.setBuf, w.ts = make([]index.Run, nr+nh), make([]index.RunSet, ns+r), make([]Transfer, 2*np)
	}
	w.runs, w.tmp = w.runBuf[:0:nr], w.runBuf[nr:nr]
	w.sets, w.hold.Dims = w.setBuf[:0:ns], w.setBuf[ns:ns]
	w.first, w.coords, w.lo, w.hi = w.inl[0:0:8], w.inl[8:8:16], w.inl[16:16:24], w.inl[24:24]
}

// grid returns a grid of r dimensions carved from w.sets.
func (w *work) grid(r int) index.Grid {
	n := len(w.sets)
	w.sets = slices.Grow(w.sets, r)[:n+r]
	return index.Grid{Dims: w.sets[n : n+r : n+r]}
}

// and returns a ∩ b in w's storage, or an empty grid, keeping nothing,
// when they do not meet.
func (w *work) and(a, b index.Grid) index.Grid {
	n, at := len(w.sets), len(w.runs)
	g := w.grid(len(a.Dims))
	for k := range g.Dims {
		lo := len(w.runs)
		w.runs = index.AppendIntersect(w.runs, a.Dims[k], b.Dims[k])
		if g.Dims[k] = w.runs[lo:len(w.runs):len(w.runs)]; len(g.Dims[k]) == 0 {
			w.sets, w.runs = w.sets[:n], w.runs[:at]
			return index.Grid{}
		}
	}
	return g
}

// transfers appends to ts, in rank order, one transfer per rank below np
// outside rank's replica group that holds a piece of mine under d (a
// primary holder, if primaries).  The holders lie in a box of target
// coordinates: d.OwnerSpan of mine along a dimension that distributes,
// the pin of a pinned one, all of a replicating one (0 for primaries).
// Targets number ranks column-major, so the box's walk is in rank order.
func (w *work) transfers(ts []Transfer, mine index.Grid, d *dist.Distribution, primaries bool, np int, group func(int) bool) []Transfer {
	tg := d.Target()
	w.lo, w.hi = w.lo[:0], w.hi[:0]
	for td := range tg.NDims() {
		c0, c1 := 0, tg.Extent(td)-1
		if p := d.Pinned(td); p >= 0 {
			c0, c1 = p, p
		} else if primaries {
			c1 = 0
		}
		w.lo, w.hi = append(w.lo, c0), append(w.hi, c1)
	}
	for k, rs := range mine.Dims {
		if td := d.ProcDim(k); td >= 0 {
			w.lo[td], w.hi[td] = d.OwnerSpan(k, rs[0].Lo, slices.MaxFunc(rs, func(a, b index.Run) int { return a.Hi - b.Hi }).Hi)
		}
	}
	w.coords = append(w.coords[:0], w.lo...)
	for {
		if r := tg.RankOf(w.coords); r < np && !group(r) {
			w.hold, w.tmp = d.LocalGridInto(w.hold, w.tmp[:0], r)
			if g := w.and(mine, w.hold); !g.Empty() {
				ts = append(ts, Transfer{Peer: r, Grid: g, Count: g.Count()})
			}
		}
		td := 0
		for ; td < len(w.coords) && w.coords[td] == w.hi[td]; td++ {
			w.coords[td] = w.lo[td]
		}
		if td == len(w.coords) {
			return ts
		}
		w.coords[td]++
	}
}
