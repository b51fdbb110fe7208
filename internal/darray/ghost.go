package darray

import (
	"repro/internal/dist"
	"repro/internal/machine"
)

// ExchangeGhosts refreshes the overlap areas of dimension k: each
// processor sends its boundary faces to the neighbouring processors along
// that dimension's target dimension and applies the neighbours' faces
// into its own ghost margins.  Overlap areas are the
// mechanism the VFE uses to satisfy nearest-neighbour non-local
// references (§3.2: "the associated overlap areas"); a 5-point smoothing
// step needs one exchange per distributed dimension per sweep, which is
// exactly the message pattern analyzed in §4 (2 messages per processor
// for a column distribution, 4 for a 2-D block distribution).
//
// The dimension must be contiguous (block-family or elided).  Ghost
// areas are clipped at the domain boundary (non-periodic), and the
// exchanged face width is min(ghost width, neighbour segment width) —
// with degenerate segments thinner than the overlap, the farther ghost
// rows stay stale (only nearest neighbours exchange).  With a width above
// 1 the faces carry the corners of the dimensions before k (see
// StartExchangeGhosts), so exchange those first.
//
// ExchangeGhosts is simply StartExchangeGhosts followed by
// GhostHandle.Wait; use the start/wait pair directly to overlap local
// computation with the exchange.  Programmer errors (ghost exchange on a
// non-contiguous dimension) panic; transport failures are returned as
// errors wrapping the underlying cause.  The exchange runs under the
// machine's msg.RetryPolicy, so a lost face
// surfaces as a wrapped timeout instead of blocking forever.
func (a *Array) ExchangeGhosts(ctx *machine.Ctx, k int) error {
	h, err := a.StartExchangeGhosts(ctx, k)
	if err != nil {
		return err
	}
	return h.Wait()
}

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
