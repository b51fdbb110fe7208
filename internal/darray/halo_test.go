package darray

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// Depth-k halos: ghost margins several cells deep, refreshed once and
// then computed over for several steps, need their corners and must not
// change under a rank that is still computing on them.

// checkRing compares every allocated cell of this rank's storage — owned
// cells and the whole ghost ring, corners included — with want.
func checkRing(t *testing.T, ctx *machine.Ctx, a *Array, what string, want func(index.Point) float64) {
	t.Helper()
	l := a.Local(ctx)
	lo, hi, ok := l.Segment()
	if !ok || l.Count() == 0 {
		return
	}
	tri := make([][3]int, len(lo))
	for k := range tri {
		tri[k] = [3]int{lo[k] - l.gLo[k], hi[k] + l.gHi[k], 1}
	}
	index.NewSection(tri...).ForEach(func(p index.Point) bool {
		if got := l.At(p); got != want(p) {
			t.Errorf("rank %d %s: cell %v = %v, want %v", ctx.Rank(), what, p, got, want(p))
			return false
		}
		return true
	})
}

// TestGhostCornersDepth3Uneven: a ghost width of 3 on an uneven 3×3 block
// grid (segments 7, 7, 6 by 6, 6, 5).  After one exchange of all
// dimensions every ghost cell — faces and corners alike, the corners
// forwarded through the face neighbours — holds its owner's value, and
// the width-3 faces carry dimension 0's margins in dimension 1's.
func TestGhostCornersDepth3Uneven(t *testing.T) {
	dom := index.Dim(20, 17)
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			m := runOn(t, transport, 9, nil, func(ctx *machine.Ctx) error {
				tg := ctx.Machine().ProcsDim("G", 3, 3).Whole()
				d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, tg)
				a := New(ctx, "C", dom, d, WithGhost(3, 3))
				a.FillFunc(ctx, val2)
				if err := a.ExchangeAllGhosts(ctx); err != nil {
					return err
				}
				checkRing(t, ctx, a, "after one exchange", val2)
				return nil
			})
			// The centre rank owns 7×6 and has every neighbour: its dimension
			// 0 faces are 3×6, its dimension 1 faces 3×(3+7+3).
			if got, want := m.Stats().Snapshot().BytesSent[4], int64(8*(2*3*6+2*3*13)); got != want {
				t.Errorf("centre rank sent %d bytes, want %d", got, want)
			}
		})
	}
}

// TestGhostDepthSkew runs a barrier-free depth-3 5-point stencil over two
// buffers — one exchange, then three steps over boxes widened by 2, 1 and
// 0 — with one rank (a different one each round) sleeping inside a block
// while its neighbours run ahead into the next block's exchange.  Their
// faces for that block must not land in the ring the sleeper still reads
// and writes: only the sleeper's own await may apply them.  The final
// grid must equal the serial stencil bit for bit; run under -race (make
// check-halo) a write into a peer's storage also shows as a race.
func TestGhostDepthSkew(t *testing.T) {
	const n, depth, blocks = 24, 3, 3
	dom := index.Dim(n, n)
	init := func(p index.Point) float64 { return float64((p[0]*13+p[1]*7)%11) * 0.25 }
	// stencil is the update at an interior point; boundary points copy.
	stencil := func(c, w, e, s, nn float64) float64 { return 0.2 * (c + w + e + s + nn) }
	ref := make([]float64, n*n)
	dom.WholeSection().ForEach(func(p index.Point) bool { ref[dom.Offset(p)] = init(p); return true })
	next := make([]float64, n*n)
	for s := 0; s < depth*blocks; s++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				at := j*n + i
				if i == 0 || j == 0 || i == n-1 || j == n-1 {
					next[at] = ref[at]
					continue
				}
				next[at] = stencil(ref[at], ref[at-1], ref[at+1], ref[at-n], ref[at+n])
			}
		}
		ref, next = next, ref
	}
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
				tg := ctx.Machine().ProcsDim("G", 2, 2).Whole()
				d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, tg)
				src := New(ctx, "S", dom, d, WithGhost(depth, depth))
				dst := New(ctx, "D", dom, d, WithGhost(depth, depth))
				src.FillFunc(ctx, init)
				for s := 0; s < depth*blocks; s++ {
					j := s % depth
					if j == 0 {
						if err := src.ExchangeAllGhosts(ctx); err != nil {
							return err
						}
					}
					if j == 1 && ctx.Rank() == s/depth {
						time.Sleep(20 * time.Millisecond)
					}
					ls, ld := src.Local(ctx), dst.Local(ctx)
					lo, hi, _ := ls.Segment()
					w := depth - 1 - j
					box := make([][3]int, 2)
					for k := range box {
						a, b := lo[k], hi[k]
						if a > 1 {
							a -= w
						}
						if b < n {
							b += w
						}
						box[k] = [3]int{a, b, 1}
					}
					index.NewSection(box...).ForEach(func(p index.Point) bool {
						i, jj := p[0], p[1]
						if i == 1 || jj == 1 || i == n || jj == n {
							ld.SetAt(p, ls.At(p))
							return true
						}
						v := stencil(ls.At(p), ls.At(index.Point{i - 1, jj}), ls.At(index.Point{i + 1, jj}),
							ls.At(index.Point{i, jj - 1}), ls.At(index.Point{i, jj + 1}))
						ld.SetAt(p, v)
						return true
					})
					src, dst = dst, src
				}
				checkStorageOwned(t, ctx, src, fmt.Sprintf("after %d blocks", blocks), func(p index.Point) float64 {
					return ref[(p[1]-1)*n+p[0]-1]
				})
				return nil
			})
		})
	}
}

// checkStorageOwned compares this rank's owned cells with want.
func checkStorageOwned(t *testing.T, ctx *machine.Ctx, a *Array, what string, want func(index.Point) float64) {
	t.Helper()
	bad := 0
	a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
		if *v != want(p) && bad == 0 {
			t.Errorf("rank %d %s: %v = %v, want %v", ctx.Rank(), what, p, *v, want(p))
			bad++
		}
	})
}
