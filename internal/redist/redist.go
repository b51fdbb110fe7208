// Package redist computes communication schedules for the executable
// DISTRIBUTE statement (paper §2.4, implementation §3.2.2): "Each
// processor determines the new locations of current local data, sends it
// to the new locations, and receives data from other processors."
//
// A schedule is computed symmetrically on every processor from the old
// and new distributions alone — no coordination messages are needed.  Per
// peer, the transfer set is the intersection of "what I own now" with
// "what the peer will own", which the ownership algebra expresses as a
// per-dimension intersection of strided-run sets (index.Grid).  This is
// the "run time optimization of communication related to dynamic array
// references" of §3.2: schedules never enumerate elements to discover
// owners.  The package is pure schedule arithmetic and remembers
// nothing; darray keeps each rank's moves, keyed by the (old, new)
// distribution pair.
package redist

import (
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
// transport size (peers are enumerated 0..np-1; ranks outside a
// distribution's target simply own nothing).
//
// Under a replicated old distribution only primaries send, and no
// transfer runs between two holders of the same replica group — ranks
// whose old grids meet hold the same elements, so each already has what
// the other would send it.  Every holder keeps its own overlap
// (LocalKeep); a non-primary's shows in no Sends or Recvs entry.
// Without replication no two old grids meet, so the rule changes
// nothing.
func Build(oldD, newD *dist.Distribution, rank, np int) *Schedule {
	s := &Schedule{Rank: rank}
	myOld := oldD.LocalGrid(rank)
	myNew := newD.LocalGrid(rank)
	keep := myOld.Intersect(myNew)
	if !keep.Empty() {
		s.LocalKeep = keep
	}
	iAmPrimaryOld := oldD.IsPrimaryRank(rank)
	for peer := 0; peer < np; peer++ {
		if peer == rank {
			if iAmPrimaryOld && !keep.Empty() {
				s.Sends = append(s.Sends, Transfer{Peer: peer, Grid: keep, Count: keep.Count()})
				s.Recvs = append(s.Recvs, Transfer{Peer: peer, Grid: keep, Count: keep.Count()})
			}
			continue
		}
		peerPrimary := oldD.IsPrimaryRank(peer)
		if oldD.Replicated() && (iAmPrimaryOld || peerPrimary) && !myOld.Intersect(oldD.LocalGrid(peer)).Empty() {
			continue // the same replica group
		}
		if iAmPrimaryOld && !myOld.Empty() {
			if g := myOld.Intersect(newD.LocalGrid(peer)); !g.Empty() {
				s.Sends = append(s.Sends, Transfer{Peer: peer, Grid: g, Count: g.Count()})
			}
		}
		if !myNew.Empty() && peerPrimary {
			if g := oldD.LocalGrid(peer).Intersect(myNew); !g.Empty() {
				s.Recvs = append(s.Recvs, Transfer{Peer: peer, Grid: g, Count: g.Count()})
			}
		}
	}
	return s
}
