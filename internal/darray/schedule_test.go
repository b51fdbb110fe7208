package darray

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/redist"
)

// referenceSchedule is the schedule redist.Build must equal, by the
// definition it implements: rank's old and new grids intersected with
// every peer's (index.Grid.Intersect), peer by peer in rank order, under
// the replica-group rule — only primaries send, and no transfer runs
// between two ranks whose old grids meet.
func referenceSchedule(oldD, newD *dist.Distribution, rank, np int) *redist.Schedule {
	s := &redist.Schedule{Rank: rank}
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
				s.Sends = append(s.Sends, redist.Transfer{Peer: peer, Grid: keep, Count: keep.Count()})
				s.Recvs = append(s.Recvs, redist.Transfer{Peer: peer, Grid: keep, Count: keep.Count()})
			}
			continue
		}
		peerPrimary := oldD.IsPrimaryRank(peer)
		if oldD.Replicated() && (iAmPrimaryOld || peerPrimary) && !myOld.Intersect(oldD.LocalGrid(peer)).Empty() {
			continue // the same replica group
		}
		if iAmPrimaryOld && !myOld.Empty() {
			if g := myOld.Intersect(newD.LocalGrid(peer)); !g.Empty() {
				s.Sends = append(s.Sends, redist.Transfer{Peer: peer, Grid: g, Count: g.Count()})
			}
		}
		if !myNew.Empty() && peerPrimary {
			if g := oldD.LocalGrid(peer).Intersect(myNew); !g.Empty() {
				s.Recvs = append(s.Recvs, redist.Transfer{Peer: peer, Grid: g, Count: g.Count()})
			}
		}
	}
	return s
}

// scheduleDiff describes the first difference between two schedules —
// rank, then transfer by transfer peer, count and grid run for run, then
// LocalKeep — or returns "".
func scheduleDiff(got, want *redist.Schedule) string {
	if got.Rank != want.Rank {
		return fmt.Sprintf("rank %d, want %d", got.Rank, want.Rank)
	}
	for _, side := range []struct {
		name      string
		got, want []redist.Transfer
	}{{"sends", got.Sends, want.Sends}, {"recvs", got.Recvs, want.Recvs}} {
		if len(side.got) != len(side.want) {
			return fmt.Sprintf("%s %v, want %v", side.name, side.got, side.want)
		}
		for i, g := range side.got {
			w := side.want[i]
			if g.Peer != w.Peer || g.Count != w.Count || !sameGrid(g.Grid, w.Grid) {
				return fmt.Sprintf("%s[%d] = {%d %v %d}, want {%d %v %d}", side.name, i, g.Peer, g.Grid, g.Count, w.Peer, w.Grid, w.Count)
			}
		}
	}
	if !sameGrid(got.LocalKeep, want.LocalKeep) {
		return fmt.Sprintf("LocalKeep %v, want %v", got.LocalKeep, want.LocalKeep)
	}
	return ""
}

// sameGrid reports whether two grids are both empty or hold the same
// runs in the same order.
func sameGrid(a, b index.Grid) bool {
	if a.Empty() || b.Empty() {
		return a.Empty() == b.Empty()
	}
	return slices.EqualFunc(a.Dims, b.Dims, func(x, y index.RunSet) bool { return slices.Equal(x, y) })
}

// checkSchedules holds every rank's redist.Build of oldD -> newD over np
// ranks, and a Rebuild in reused's storage, to referenceSchedule.
func checkSchedules(t *testing.T, oldD, newD *dist.Distribution, np int, reused *redist.Schedule) {
	t.Helper()
	for r := 0; r < np; r++ {
		want := referenceSchedule(oldD, newD, r, np)
		if d := scheduleDiff(redist.Build(oldD, newD, r, np), want); d != "" {
			t.Fatalf("%v -> %v, rank %d of %d: %s", oldD, newD, r, np, d)
		}
		reused.Rebuild(oldD, newD, r, np)
		if d := scheduleDiff(reused, want); d != "" {
			t.Fatalf("%v -> %v, rank %d of %d, rebuilt in place: %s", oldD, newD, r, np, d)
		}
	}
}

// sizes returns e block sizes summing to n with empty blocks: every
// other block from the shift-th on is empty (the last excepted), the
// others grow by one each, and the last takes what is left.
func sizes(n, e, shift int) []int {
	out, left := make([]int, e), n
	for i := 0; i < e-1; i++ {
		if (i+shift)%2 == 1 {
			out[i] = min(left, n/e+i)
			left -= out[i]
		}
	}
	out[e-1] = left
	return out
}

// specVariants are the per-dimension distributions the reference test
// crosses, for a dimension [lo, lo+n-1] over e processors: BLOCK,
// CYCLIC(1-4), B_BLOCK and S_BLOCK with empty blocks, and ':'.
func specVariants(lo, n, e int) []dist.DimSpec {
	bounds := sizes(n, e, 0)
	for i, at := range bounds {
		if i > 0 {
			at += bounds[i-1]
		} else {
			at += lo - 1
		}
		bounds[i] = at
	}
	return []dist.DimSpec{
		dist.BlockDim(), dist.CyclicDim(1), dist.CyclicDim(2), dist.CyclicDim(3), dist.CyclicDim(4),
		dist.BBlockDim(bounds...), dist.SBlockDim(sizes(n, e, 1)...), dist.ElidedDim(),
	}
}

// scheduleTargets are the processor sections the reference test maps
// onto on a machine of p: the whole line, two sections of it, every
// proper 2-D grid and a section of each.
func scheduleTargets(m *machine.Machine, p int) []dist.Target {
	line := m.ProcsDim("L", p)
	out := []dist.Target{line.Whole()}
	if p > 1 {
		out = append(out, line.Section([3]int{2, p, 1}), line.Section([3]int{1, p, 2}))
	}
	for a := 2; a < p; a++ {
		if p%a == 0 {
			g := m.ProcsDim(fmt.Sprint("G", a), a, p/a)
			out = append(out, g.Whole(), g.Section([3]int{1, a, 1}, [3]int{2, p / a, 1}))
		}
	}
	return out
}

// scheduleDists lists the distributions of dom onto every target: every
// combination of specVariants over its dimensions that the target can
// take.  Fewer distributed dimensions than the target has replicate.
func scheduleDists(dom index.Domain, targets []dist.Target) []*dist.Distribution {
	var out []*dist.Distribution
	for _, tg := range targets {
		var rec func(k, td int, specs []dist.DimSpec)
		rec = func(k, td int, specs []dist.DimSpec) {
			if k == dom.Rank() {
				if d, err := dist.New(dist.NewType(slices.Clone(specs)...), dom, tg); err == nil {
					out = append(out, d)
				}
				return
			}
			e := 1
			if td < tg.NDims() {
				e = tg.Extent(td)
			}
			for _, s := range specVariants(dom.Lo[k], dom.Extent(k), e) {
				next := td
				if s.Distributed() {
					if td == tg.NDims() {
						continue
					}
					next++
				}
				rec(k+1, next, append(specs, s))
			}
		}
		rec(0, 0, nil)
	}
	return out
}

// TestScheduleMatchesReference holds redist.Build, and Rebuild in reused
// storage, to the per-peer reference transfer by transfer — peer, grid,
// count, order — and in LocalKeep, on every rank of P = 1-6.  Sources and
// destinations cross BLOCK, CYCLIC(1-4), B_BLOCK with empty blocks,
// S_BLOCK with zero sizes and ':' on lines, grids and TO sections of
// both, so replicated sources and ranks outside a target occur: every
// pair in 1-D, 1500 seeded pairs a machine in 2-D.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused redist.Schedule
	for p := 1; p <= 6; p++ {
		m := machine.New(p)
		targets := scheduleTargets(m, p)
		one := scheduleDists(index.NewDomain([2]int{-2, 10}), targets)
		for _, oldD := range one {
			for _, newD := range one {
				checkSchedules(t, oldD, newD, p, &reused)
			}
		}
		two := scheduleDists(index.NewDomain([2]int{1, 7}, [2]int{0, 4}), targets)
		for i := 0; i < 1500; i++ {
			checkSchedules(t, two[rng.Intn(len(two))], two[rng.Intn(len(two))], p, &reused)
		}
		m.Close()
	}
}
