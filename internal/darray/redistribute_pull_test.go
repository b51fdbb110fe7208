package darray

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// TestRedistributeGhostedRects redistributes a ghosted array: the window
// rects are computed from layouts that include the overlap margins, so
// every pulled element must land in the interior of the new Local and
// the margins (stale after a DISTRIBUTE, zero in fresh storage) must
// stay untouched.
func TestRedistributeGhostedRects(t *testing.T) {
	dom := index.Dim(12, 10)
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			runOn(t, transport, 4, nil, func(ctx *machine.Ctx) error {
				grid := ctx.Machine().ProcsDim("G", 2, 2).Whole()
				line := ctx.Machine().ProcsDim("P", 4).Whole()
				d1 := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, grid)
				d2 := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BBlockDim(2, 5, 6, 10)), dom, line)
				a := New(ctx, "H", dom, d1, WithGhost(2, 1))
				a.FillFunc(ctx, val2)
				if err := a.ExchangeAllGhosts(ctx); err != nil { // non-zero margins in the source
					return err
				}
				for _, d := range []*dist.Distribution{d2, d1} {
					if err := a.RedistributeTo(ctx, d); err != nil {
						return err
					}
					l := a.Local(ctx)
					want := make([]float64, len(l.Data()))
					l.ForEachOwned(func(p index.Point, _ *float64) { want[l.Offset(p)] = val2(p) })
					for i, v := range l.Data() {
						if v != want[i] {
							t.Errorf("rank %d under %v: storage[%d] = %v, want %v (alloc %v, ghosts %v/%v)",
								ctx.Rank(), d, i, v, want[i], l.AllocShape(), l.gLo, l.gHi)
							break
						}
					}
				}
				return nil
			})
		})
	}
}

// TestRedistributeWarmAllocs pins what a warm DISTRIBUTE costs in
// allocations on shared memory: the ADI pair (:,BLOCK) <-> (BLOCK,:) with
// schedules, transfer plans, window and retired Locals all cached.  That
// is nothing: nothing per element, per transfer or per peer (no payload,
// no pack buffer, no geometry — the self-copy's rect pairs are planned
// once per move), no span name, and no option struct (options are plain
// values).  testing.AllocsPerRun counts the whole process, so
// rank 0 measures while the other ranks run the same collective calls,
// and the figure is divided by the rank count.
func TestRedistributeWarmAllocs(t *testing.T) {
	const np, runs = 4, 50
	dom := index.Dim(64, 64)
	var perRank float64
	run(t, np, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", np).Whole()
		cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
		rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
		a := New(ctx, "V", dom, cols)
		a.FillFunc(ctx, val2)
		var failed error
		pair := func() {
			for _, d := range []*dist.Distribution{rows, cols} {
				if err := a.RedistributeTo(ctx, d); err != nil && failed == nil {
					failed = err
				}
			}
		}
		pair() // builds schedules, plans, the window; parks both Locals
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			perRank = testing.AllocsPerRun(runs, pair) / (2 * np)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				pair()
			}
		}
		return failed
	})
	// Measured: exactly 0 (1 while RedistributeTo's option struct escaped,
	// 2 while the self-copy walked runs through an iterator, 3 while the
	// span name was concatenated per call).
	if perRank > 0 {
		t.Errorf("warm DISTRIBUTE: %.2f allocs per rank, want 0", perRank)
	}
}

// coldPlanAllocs bounds TestColdPlanAllocs; it may only shrink.
// Measured: 7 from (:,BLOCK), 8 from (CYCLIC(3),:), whose peer layout
// grows (32 from (:,BLOCK) while a schedule, its transfer rects and the
// self-copy's rects grew slice by slice).
const coldPlanAllocs = 8

// TestColdPlanAllocs pins what a rank's first move between two mappings
// allocates besides its new Local: a 4-rank (:,BLOCK) → (BLOCK,:) move
// whose table misses sizes the schedule, the transfer plan and the
// self-copy's rects once and fills them, and so does one from
// (CYCLIC(3),:), whose runs bound the sizes.  The new Local's storage is
// left out by recycling it: each round declares a fresh array under
// (BLOCK,:) and moves it to the other mapping, which parks that Local,
// and the measured move back lays its new Local out in it.  The count is
// the whole process's between barriers, per rank, least of five rounds;
// the moved values must be exact.
func TestColdPlanAllocs(t *testing.T) {
	const np, rounds = 4, 5
	dom := index.Dim(64, 64)
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	for _, from := range []dist.Type{
		dist.NewType(dist.ElidedDim(), dist.BlockDim()),
		dist.NewType(dist.CyclicDim(3), dist.ElidedDim()),
	} {
		best := uint64(math.MaxUint64)
		run(t, np, func(ctx *machine.Ctx) error {
			tg := ctx.Machine().ProcsDim("P", np).Whole()
			via := dist.MustNew(from, dom, tg)
			rows := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
			for range rounds {
				a := New(ctx, "V", dom, rows)
				a.FillFunc(ctx, val2)
				if err := a.RedistributeTo(ctx, via); err != nil {
					return err
				}
				var m0 uint64
				for step := range 4 { // barrier, read, barrier, move, barrier, read, barrier
					if err := ctx.Barrier(); err != nil {
						return err
					}
					switch {
					case step == 0 && ctx.Rank() == 0:
						m0 = mallocs()
					case step == 1:
						if err := a.RedistributeTo(ctx, rows); err != nil {
							return err
						}
					case step == 2 && ctx.Rank() == 0:
						best = min(best, (mallocs()-m0)/np)
					}
				}
				if hits, misses := a.ScheduleCacheStats(); hits != 0 || misses != 2*np {
					t.Errorf("move table: %d hits, %d misses, want 0 and %d", hits, misses, 2*np)
				}
				a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
					if *v != val2(p) {
						t.Errorf("rank %d: [%v] = %v, want %v", ctx.Rank(), p, *v, val2(p))
					}
				})
			}
			return nil
		})
		t.Logf("cold move from %v to (BLOCK,:): %d allocs per rank", from, best)
		if best > coldPlanAllocs {
			t.Errorf("cold move from %v to (BLOCK,:): %d allocs per rank besides its Local, want <= %d", from, best, coldPlanAllocs)
		}
	}
}

// TestRebalanceWarmAllocs pins what a DISTRIBUTE to fresh B_BLOCK bounds
// costs in allocations once the rank's move table is at its bound: every
// call misses the table, so it plans the move (schedule, transfer rects,
// peer layouts) in the evicted entry's storage and lays its new Local out
// in parked storage.  The calls cycle through 2·maxMoves+1 bounds, built
// beforehand as a program builds its BOUNDS, which the least recently
// used eviction turns into a miss every call; the warm-up runs every
// bounds through every entry's storage, and block sizes stay within
// 56-72 of a 256-element array on four ranks, so parked storage holds
// every layout.  Counted as TestRedistributeWarmAllocs counts, per rank
// and call.
func TestRebalanceWarmAllocs(t *testing.T) {
	const np, runs, cycle = 4, 50, 2*maxMoves + 1
	dom := index.Dim(256)
	var perRank float64
	var missed int
	run(t, np, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", np).Whole()
		ds := make([]*dist.Distribution, cycle)
		for i := range ds {
			a, b := i%17-8, i/17*8-4
			sz := []int{64 + a, 64 - a, 64 + b, 64 - b}
			bounds := make([]int, np)
			for r := range bounds {
				bounds[r] = sz[(r+i)%np]
				if r > 0 {
					bounds[r] += bounds[r-1]
				}
			}
			ds[i] = dist.MustNew(dist.NewType(dist.BBlockDim(bounds...)), dom, tg)
			ds[i].Fingerprint()
		}
		a := New(ctx, "F", dom, dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg))
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		var failed error
		next := 0
		move := func() {
			if err := a.RedistributeTo(ctx, ds[next%cycle]); err != nil && failed == nil {
				failed = err
			}
			next++
		}
		for next < maxMoves*cycle { // every bounds through every entry
			move()
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, before := a.ScheduleCacheStats()
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			perRank = testing.AllocsPerRun(runs, move) / np
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				move()
			}
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if _, after := a.ScheduleCacheStats(); ctx.Rank() == 0 {
			missed = after - before
		}
		l := a.Local(ctx)
		l.ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(p[0]) {
				t.Errorf("rank %d: %v holds %v", ctx.Rank(), p, *v)
			}
		})
		return failed
	})
	if missed != np*(runs+1) {
		t.Errorf("%d table misses over %d fresh-bounds calls on %d ranks, want every call a miss", missed, runs+1, np)
	}
	// Measured: exactly 0 (1 while RedistributeTo's option struct
	// escaped).
	if perRank > 0 {
		t.Errorf("fresh-bounds DISTRIBUTE: %.2f allocs per rank, want 0", perRank)
	}
}

// TestGhostExchangeWarmAllocs bounds the allocations of a warm ghost
// exchange, per rank, the way TestRedistributeWarmAllocs bounds a warm
// DISTRIBUTE: a (:,BLOCK) grid with one ghost column a side, as the
// smoothing sweep refreshes it every step, on chan.
func TestGhostExchangeWarmAllocs(t *testing.T) {
	const np, runs = 4, 50
	dom := index.Dim(64, 64)
	var perRank float64
	run(t, np, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", np).Whole()
		cols := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.BlockDim()), dom, tg)
		a := New(ctx, "G", dom, cols, WithGhost(0, 1))
		a.FillFunc(ctx, val2)
		var failed error
		exchange := func() {
			if err := a.ExchangeAllGhosts(ctx); err != nil && failed == nil {
				failed = err
			}
		}
		exchange() // builds the plan, fills the free lists
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			perRank = testing.AllocsPerRun(runs, exchange) / np
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
				exchange()
			}
		}
		return failed
	})
	// Measured: 0.75-1, the handle (10-10.25 while every exchange built
	// its rects and neighbour list and chan copied each face into a fresh
	// buffer).
	if perRank > 2 {
		t.Errorf("warm ghost exchange: %.2f allocs per rank, want <= 2", perRank)
	}
}

// TestRedistributeTCPReleasesPayloads: over TCP a packed transfer of 4
// KiB or more lands in a buffer from the connection's free list, which
// only Packet.Release refills.  A warm BLOCK <-> CYCLIC(2) DISTRIBUTE —
// every transfer several runs, so packed, and 8 KiB — must hand each
// payload back after unpacking it, so the next move's payloads reuse
// those buffers and a warm DISTRIBUTE allocates less than one payload's
// size in the whole process.
func TestRedistributeTCPReleasesPayloads(t *testing.T) {
	const np, runs, payload = 4, 20, 8 << 10
	dom := index.Dim(4 * 4 * payload / 8) // 1024-element transfers
	var perMove float64
	runOn(t, "tcp", np, nil, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", np).Whole()
		blk := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		cyc := dist.MustNew(dist.NewType(dist.CyclicDim(2)), dom, tg)
		a := New(ctx, "T", dom, blk)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		pair := func() error {
			for _, d := range []*dist.Distribution{cyc, blk} {
				if err := a.RedistributeTo(ctx, d); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 3; i++ { // build schedules and plans, fill the free lists
			if err := pair(); err != nil {
				return err
			}
		}
		var m0, m1 runtime.MemStats
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		for i := 0; i < runs; i++ {
			if err := pair(); err != nil {
				return err
			}
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perMove = float64(m1.TotalAlloc-m0.TotalAlloc) / (2 * runs)
		}
		return nil
	})
	t.Logf("%.0f bytes allocated per warm DISTRIBUTE (all ranks, %d-byte transfers)", perMove, payload)
	if perMove >= payload {
		t.Errorf("warm TCP DISTRIBUTE allocates %.0f bytes, want less than one %d-byte payload", perMove, payload)
	}
}
