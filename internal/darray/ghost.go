package darray

import (
	"repro/internal/dist"
	"repro/internal/machine"
)

// ExchangeAllGhosts refreshes every dimension with a non-zero overlap,
// stopping at the first transport failure.  It is StartExchangeAllGhosts
// followed by GhostHandle.Wait.
func (a *Array) ExchangeAllGhosts(ctx *machine.Ctx) error {
	h, err := a.StartExchangeAllGhosts(ctx)
	if err != nil {
		return err
	}
	return h.Wait()
}

// dimCount returns how many indices of array dimension k the given rank
// owns.  It reads the memoized per-rank grid rather than re-deriving the
// dimension's run set — this runs once per neighbour per exchange.
func dimCount(d *dist.Distribution, k, rank int) int {
	return d.LocalGrid(rank).Dims[k].Count()
}

// segDim returns the contiguous owned bounds of dimension k.
func segDim(l *Local, k int) (lo, hi int, ok bool) {
	rs := l.grid.Dims[k]
	if len(rs) != 1 || rs[0].Stride != 1 {
		return 0, 0, false
	}
	return rs[0].Lo, rs[0].Hi, true
}

// neighborRank finds the nearest processor along target dimension td (in
// direction dir) that owns a non-empty part of the array, or -1.
func neighborRank(d *dist.Distribution, coords []int, td, dir int) int {
	tg := d.Target()
	c := make([]int, len(coords))
	copy(c, coords)
	for {
		c[td] += dir
		if c[td] < 0 || c[td] >= tg.Extent(td) {
			return -1
		}
		r := tg.RankOf(c)
		if d.LocalCount(r) > 0 {
			return r
		}
	}
}
