package ckpt

import (
	"math"
	"strconv"
	"strings"
)

// virtualTarget replays a checkpointed processor arrangement without a
// live machine behind it: a dense, 0-based, column-major processor array
// of the recorded extents.  It exists so a restore can rebuild the *old*
// distribution — possibly over more processors than the surviving machine
// has — and intersect its ownership grids against the new one.
//
// It matches machine.ProcSection's coordinate model (dense 0-based
// per-dimension coordinates, column-major rank order), which is why a
// checkpointed distribution whose save-time validation passed (see
// checkReplay) replays element-for-element.
type virtualTarget struct {
	ext []int
}

func (t virtualTarget) NDims() int       { return len(t.ext) }
func (t virtualTarget) Extent(k int) int { return t.ext[k] }

func (t virtualTarget) Size() int {
	n := 1
	for _, e := range t.ext {
		n *= e
	}
	return n
}

// RankOf is column-major, like machine.ProcArray.
func (t virtualTarget) RankOf(coords []int) int {
	rank, mul := 0, 1
	for k, c := range coords {
		rank += c * mul
		mul *= t.ext[k]
	}
	return rank
}

func (t virtualTarget) CoordsOf(rank int) ([]int, bool) {
	if rank < 0 || rank >= t.Size() {
		return nil, false
	}
	coords := make([]int, len(t.ext))
	for k, e := range t.ext {
		coords[k] = rank % e
		rank /= e
	}
	return coords, true
}

func (t virtualTarget) Ranks() []int {
	out := make([]int, t.Size())
	for i := range out {
		out[i] = i
	}
	return out
}

func (t virtualTarget) String() string {
	parts := make([]string, len(t.ext))
	for k, e := range t.ext {
		parts[k] = "1:" + strconv.Itoa(e)
	}
	return "$CKPT(" + strings.Join(parts, ",") + ")"
}

// balancedExtents factors np into nd per-dimension extents whose product
// is np, as square as possible — the processor arrangement a restore uses
// when the surviving machine cannot host the checkpointed arrangement
// exactly.
func balancedExtents(np, nd int) []int {
	out := make([]int, nd)
	rem := np
	for k := 0; k < nd; k++ {
		left := nd - k
		f := int(math.Round(math.Pow(float64(rem), 1/float64(left))))
		if f < 1 {
			f = 1
		}
		for f > 1 && rem%f != 0 {
			f--
		}
		out[k] = f
		rem /= f
	}
	// Any residue (prime np, rounding) lands on the last dimension.
	out[nd-1] *= rem
	return out
}
