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
// owners, and are cached keyed by the (old, new) distribution pair.
package redist

import (
	"sync"

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
	// owners send; the self-transfer (Peer == Rank) is included and is
	// executed as a local copy.
	Sends []Transfer
	// Recvs lists incoming transfers.  Under a replicated new
	// distribution every replica receives its copy.
	Recvs []Transfer
	// LocalKeep is the self-overlap (data already in place), identical
	// to the send/recv entry with Peer == Rank when present.
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
func Build(oldD, newD *dist.Distribution, rank, np int) *Schedule {
	s := &Schedule{Rank: rank}
	myOld := oldD.LocalGrid(rank)
	myNew := newD.LocalGrid(rank)
	iAmPrimaryOld := oldD.IsPrimaryRank(rank)
	for peer := 0; peer < np; peer++ {
		if iAmPrimaryOld && !myOld.Empty() {
			peerNew := newD.LocalGrid(peer)
			if g := myOld.Intersect(peerNew); !g.Empty() {
				s.Sends = append(s.Sends, Transfer{Peer: peer, Grid: g, Count: g.Count()})
				if peer == rank {
					s.LocalKeep = g
				}
			}
		}
		if !myNew.Empty() && oldD.IsPrimaryRank(peer) {
			peerOld := oldD.LocalGrid(peer)
			if g := peerOld.Intersect(myNew); !g.Empty() {
				s.Recvs = append(s.Recvs, Transfer{Peer: peer, Grid: g, Count: g.Count()})
			}
		}
	}
	return s
}

// cacheKey identifies a (old,new,rank,view) schedule structurally: SPMD
// ranks build their own logically-equal Distribution objects, so
// fingerprints rather than pointers key the cache.  np is part of the
// key because the schedule enumerates peers 0..np-1: after a membership
// Regroup shrinks the view, a schedule built for the wider epoch would
// address ranks that no longer exist.
type cacheKey struct {
	oldFP string
	newFP string
	rank  int
	np    int
}

// planKey identifies a selected Plan: plans are rank-independent (every
// SPMD rank computes the same one), so only the distribution pair, the
// view width and the budget distinguish them.
type planKey struct {
	oldFP  string
	newFP  string
	np     int
	budget int64
}

// Cache memoizes schedules and plans.  The VFE keeps redistribution
// schedules around because phase-structured codes (ADI, PIC) alternate
// between the same pair of distributions every iteration.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*Schedule
	p  map[planKey]*Plan

	hits, misses int
}

// NewCache creates an empty schedule cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]*Schedule), p: make(map[planKey]*Plan)}
}

// Get returns the cached schedule or builds and caches it; hit reports
// whether the schedule was served from the cache.
func (c *Cache) Get(oldD, newD *dist.Distribution, rank, np int) (s *Schedule, hit bool) {
	k := cacheKey{oldD.Fingerprint(), newD.Fingerprint(), rank, np}
	c.mu.Lock()
	if s, ok := c.m[k]; ok {
		c.hits++
		c.mu.Unlock()
		return s, true
	}
	c.misses++
	c.mu.Unlock()
	s = Build(oldD, newD, rank, np)
	c.mu.Lock()
	c.m[k] = s
	c.mu.Unlock()
	return s, false
}

// GetPlan returns the cached plan for (oldD, newD, np, opt) or computes
// and caches it.  Like Get, it is keyed structurally and safe to call
// concurrently from every SPMD rank; all ranks of one view receive the
// same *Plan, so the per-step sub-schedule memoization inside the plan is
// shared too.
func (c *Cache) GetPlan(oldD, newD *dist.Distribution, np int, opt PlanOptions) (*Plan, error) {
	budget := opt.MemBudget
	if budget < 0 {
		budget = 0
	}
	k := planKey{oldD.Fingerprint(), newD.Fingerprint(), np, budget}
	c.mu.Lock()
	if p, ok := c.p[k]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	p, err := PlanMove(oldD, newD, np, opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.p[k]; ok {
		p = prev // another rank raced us; share its memoization
	} else {
		c.p[k] = p
	}
	c.mu.Unlock()
	return p, nil
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
