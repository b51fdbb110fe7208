package darray

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// run executes an SPMD body on a fresh machine over channels.
func run(t *testing.T, np int, body func(ctx *machine.Ctx) error) *machine.Machine {
	t.Helper()
	return runOn(t, "chan", np, nil, body)
}

// runOn executes an SPMD body on a fresh np-rank machine over the named
// transport ("chan" or "tcp"), with cost attached when non-nil.
func runOn(t *testing.T, transport string, np int, cost *msg.CostModel, body func(ctx *machine.Ctx) error) *machine.Machine {
	t.Helper()
	var topts []msg.Option
	if cost != nil {
		topts = append(topts, msg.WithCost(cost))
	}
	var tr msg.Transport = msg.NewChanTransport(np, topts...)
	if transport == "tcp" {
		tcp, err := msg.NewTCPTransport(np, topts...)
		if err != nil {
			t.Fatal(err)
		}
		tr = tcp
	}
	m := machine.New(np, machine.WithTransport(tr))
	t.Cleanup(func() { m.Close() })
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	return m
}

func val2(p index.Point) float64 { return float64(p[0]*1000 + p[1]) }

func TestCreateFillGather(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), index.Dim(8, 3), tg)
		a := New(ctx, "A", index.Dim(8, 3), d)
		a.FillFunc(ctx, val2)
		ctx.Barrier()
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			dom := a.Domain()
			dom.WholeSection().ForEach(func(p index.Point) bool {
				if got[dom.Offset(p)] != val2(p) {
					t.Errorf("gathered[%v] = %v want %v", p, got[dom.Offset(p)], val2(p))
				}
				return true
			})
		} else if got != nil {
			t.Error("non-root gather should return nil")
		}
		return nil
	})
}

func TestLocalAccessAndSegment(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(10), tg)
		a := New(ctx, "B", index.Dim(10), d)
		l := a.Local(ctx)
		if ctx.Rank() == 0 {
			if l.Count() != 5 || l.shape[0] != 5 {
				t.Errorf("rank 0 count = %d", l.Count())
			}
			lo, hi, ok := l.Segment()
			if !ok || lo[0] != 1 || hi[0] != 5 {
				t.Errorf("segment = %v %v %v", lo, hi, ok)
			}
			if !l.Owns(index.Point{3}) || l.Owns(index.Point{7}) {
				t.Error("ownership wrong")
			}
		}
		l.ForEachOwned(func(p index.Point, v *float64) { *v = float64(p[0]) })
		if got := l.At(index.Point{l.Grid().Dims[0].At(0)}); got != float64(l.Grid().Dims[0].At(0)) {
			t.Errorf("At = %v", got)
		}
		return nil
	})
}

func TestRemoteGetSetAccounting(t *testing.T) {
	m := run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		d := dist.MustNew(dist.NewType(dist.BlockDim()), index.Dim(10), tg)
		a := New(ctx, "C", index.Dim(10), d)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(10 * p[0]) })
		ctx.Barrier()
		// rank 0 reads element 9 (owned by rank 1)
		if ctx.Rank() == 0 {
			if got := a.Get(ctx, index.Point{9}); got != 90 {
				t.Errorf("remote get = %v", got)
			}
			a.Set(ctx, index.Point{10}, -1) // remote put
		}
		ctx.Barrier()
		if ctx.Rank() == 1 {
			if got := a.Get(ctx, index.Point{10}); got != -1 {
				t.Errorf("after remote put, local get = %v", got)
			}
		}
		return nil
	})
	sn := m.Stats().Snapshot()
	if sn.TotalMsgs() == 0 {
		t.Fatal("simulated one-sided access should be accounted in stats")
	}
}

func TestAccessBeforeDistributionPanics(t *testing.T) {
	m := machine.New(2)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		a := New(ctx, "U", index.Dim(4), nil)
		if a.Distributed(ctx.Rank()) {
			t.Error("should be undistributed")
		}
		_ = a.Local(ctx) // must panic
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "before association") {
		t.Fatalf("err = %v", err)
	}
}

func TestFirstAssociationThenAccess(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		a := New(ctx, "U", index.Dim(6), nil)
		d := dist.MustNew(dist.NewType(dist.CyclicDim(1)), index.Dim(6), tg)
		if err := a.RedistributeTo(ctx, d); err != nil {
			return err
		}
		if !a.Distributed(ctx.Rank()) || a.Epoch(ctx.Rank()) != 1 {
			t.Error("association failed")
		}
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		if got := a.Get(ctx, index.Point{5}); got != 5 {
			t.Errorf("get = %v", got)
		}
		return nil
	})
}

func TestRedistributePreservesValues(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		dom := index.Dim(16, 5)
		d1 := dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg)
		d2 := dist.MustNew(dist.NewType(dist.ElidedDim(), dist.CyclicDim(2)), dom, tg)
		a := New(ctx, "A", dom, d1)
		a.FillFunc(ctx, val2)
		ctx.Barrier()
		if err := a.RedistributeTo(ctx, d2); err != nil {
			return err
		}
		// every element readable locally by its new owner with old value
		l := a.Local(ctx)
		bad := 0
		l.ForEachOwned(func(p index.Point, v *float64) {
			if *v != val2(p) {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("rank %d: %d wrong values after redistribute", ctx.Rank(), bad)
		}
		// redistribute back and gather
		if err := a.RedistributeTo(ctx, d1); err != nil {
			return err
		}
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			dom.WholeSection().ForEach(func(p index.Point) bool {
				if got[dom.Offset(p)] != val2(p) {
					t.Errorf("after roundtrip, [%v] = %v", p, got[dom.Offset(p)])
				}
				return true
			})
		}
		if a.Epoch(ctx.Rank()) != 2 {
			t.Errorf("epoch = %d", a.Epoch(ctx.Rank()))
		}
		return nil
	})
}

// chainDom and randomDist generate the distribution crossings of the
// chain tests: every kind per dimension, at most two distributed.
var chainDom = index.Dim(12, 9)

func randomDist(tg dist.Target, r *rand.Rand) *dist.Distribution {
	dom := chainDom
	specs := make([]dist.DimSpec, 2)
	dims := 0
	for k := 0; k < 2; k++ {
		switch r.Intn(4) {
		case 0:
			specs[k] = dist.BlockDim()
			dims++
		case 1:
			specs[k] = dist.CyclicDim(1 + r.Intn(3))
			dims++
		case 2:
			specs[k] = dist.ElidedDim()
		case 3:
			n := dom.Extent(k)
			bounds := make([]int, 2)
			bounds[0] = r.Intn(n + 1)
			bounds[1] = n
			specs[k] = dist.BBlockDim(bounds...)
			dims++
		}
	}
	if dims > 2 {
		specs[1] = dist.ElidedDim()
	}
	d, err := dist.New(dist.NewType(specs...), dom, tg)
	if err != nil {
		panic(err)
	}
	return d
}

// chainSeeds are the chain tests' trials (one random 5-crossing chain
// each).
func chainSeeds() []int64 {
	rng := rand.New(rand.NewSource(77))
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

func TestRedistributeChainProperty(t *testing.T) {
	// Random chains of redistributions must preserve all values.
	dom := chainDom
	mkDist := randomDist
	for trial, seed := range chainSeeds() {
		run(t, 4, func(ctx *machine.Ctx) error {
			r := rand.New(rand.NewSource(seed)) // same sequence on all ranks
			tg := ctx.Machine().ProcsDim("G", 2, 2).Whole()
			d0 := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, tg)
			a := New(ctx, "A", dom, d0)
			a.FillFunc(ctx, val2)
			ctx.Barrier()
			dists := []*dist.Distribution{d0}
			for i := 0; i < 5; i++ {
				nd := ctx.CollectiveOnce(func() any { return mkDist(tg, r) }).(*dist.Distribution)
				_ = r.Intn(2) // keep local rng in sync with the creator
				dists = append(dists, nd)
				if err := a.RedistributeTo(ctx, nd); err != nil {
					return err
				}
			}
			bad := 0
			a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
				if *v != val2(p) {
					bad++
				}
			})
			if bad != 0 {
				t.Errorf("trial %d rank %d: %d corrupted values (chain %v)", trial, ctx.Rank(), bad, dists)
			}
			return nil
		})
	}
}

func TestNoTransferSemantics(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		dom := index.Dim(8)
		d1 := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)   // p0: 1-4
		d2 := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg) // p0: odd
		a := New(ctx, "A", dom, d1)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		base := ctx.Machine().Stats().Snapshot()
		if err := a.RedistributeTo(ctx, d2, NoTransfer()); err != nil {
			return err
		}
		delta := ctx.Machine().Stats().Snapshot().Sub(base)
		// NOTRANSFER must move no array payload (barrier messages are
		// zero-byte; schedule exchange does not happen)
		if delta.TotalBytes() != 0 {
			t.Errorf("NOTRANSFER moved %d bytes", delta.TotalBytes())
		}
		l := a.Local(ctx)
		// kept elements: indices I owned under both distributions
		if ctx.Rank() == 0 {
			// rank 0 owned 1-4, now owns 1,3,5,7; 1 and 3 kept, 5,7 zero
			if l.At(index.Point{1}) != 1 || l.At(index.Point{3}) != 3 {
				t.Error("kept values lost")
			}
			if l.At(index.Point{5}) != 0 || l.At(index.Point{7}) != 0 {
				t.Error("non-kept values should be zero")
			}
		}
		return nil
	})
}

func TestRedistributeNoOp(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		dom := index.Dim(8)
		d1 := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		d1b := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		a := New(ctx, "A", dom, d1)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		if err := a.RedistributeTo(ctx, d1b); err != nil { // logically identical
			return err
		}
		if a.Epoch(ctx.Rank()) != 0 {
			t.Errorf("no-op redistribution bumped epoch to %d", a.Epoch(ctx.Rank()))
		}
		if a.Local(ctx).At(index.Point{a.Local(ctx).Grid().Dims[0].At(0)}) == 0 {
			t.Error("values lost on no-op")
		}
		return nil
	})
}

func TestScheduleCacheReuse(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		dom := index.Dim(10)
		d1 := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		d2 := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		a := New(ctx, "A", dom, d1)
		for i := 0; i < 3; i++ {
			if err := a.RedistributeTo(ctx, d2); err != nil {
				return err
			}
			if err := a.RedistributeTo(ctx, d1); err != nil {
				return err
			}
		}
		ctx.Barrier()
		if ctx.Rank() == 0 {
			hits, misses := a.ScheduleCacheStats()
			// 6 redistributions x 2 ranks = 12 lookups over 4 distinct keys
			if misses != 4 {
				t.Errorf("misses = %d, want 4", misses)
			}
			if hits != 8 {
				t.Errorf("hits = %d, want 8", hits)
			}
		}
		return nil
	})
}

// TestMoveTable: a rank's second lookup of a move returns the entry its
// first built, and the reversed pair is a move of its own.
func TestMoveTable(t *testing.T) {
	run(t, 2, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 2).Whole()
		dom := index.Dim(10)
		blk := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		cyc := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		a := New(ctx, "A", dom, blk)
		rank := ctx.Rank()
		m1, hit1, err := a.moveOf(rank, 2, blk, cyc, 0)
		if err != nil {
			return err
		}
		m2, hit2, _ := a.moveOf(rank, 2, blk, cyc, 0)
		if m1 != m2 {
			t.Errorf("rank %d: a hit returned a different entry", rank)
		}
		if hit1 || !hit2 {
			t.Errorf("rank %d: hit flags = %v/%v, want false/true", rank, hit1, hit2)
		}
		if m3, hit3, _ := a.moveOf(rank, 2, cyc, blk, 0); hit3 || m3 == m1 {
			t.Errorf("rank %d: the reversed pair was served the forward move", rank)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if h, m := a.ScheduleCacheStats(); rank == 0 && (h != 2 || m != 4) {
			t.Errorf("stats = %d/%d, want 2/4 (summed over both ranks)", h, m)
		}
		return nil
	})
}

// TestMoveTableKeyedOnView: a move built for one membership view must not
// be served on a shrunken one.  Both distributions fingerprint the same
// across the lookups — only np differs — and the np=4 schedule addresses
// rank 3, which no longer exists after a Regroup onto a 3-rank view.
func TestMoveTableKeyedOnView(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		dom := index.Dim(16)
		oldD := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		newD := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		a := New(ctx, "A", dom, oldD)
		if ctx.Rank() != 0 { // the table is rank 0's own
			return nil
		}
		peers := func(mv *move) map[int]bool {
			out := map[int]bool{}
			for _, tr := range mv.sched.Recvs {
				out[tr.Peer] = true
			}
			return out
		}
		wide, hit, err := a.moveOf(0, 4, oldD, newD, 0)
		if err != nil || hit {
			t.Fatalf("first build: hit %v, err %v", hit, err)
		}
		if !peers(wide)[3] {
			t.Fatalf("np=4 move should receive from rank 3, got peers %v", peers(wide))
		}
		narrow, hit, _ := a.moveOf(0, 3, oldD, newD, 0)
		if hit || narrow == wide {
			t.Fatal("shrunken view was served the wider view's move")
		}
		if peers(narrow)[3] {
			t.Fatalf("np=3 move addresses departed rank 3: %v", peers(narrow))
		}
		// Re-asking for either view is a hit on its own entry.
		if mv, hit, _ := a.moveOf(0, 4, oldD, newD, 0); !hit || mv != wide {
			t.Error("np=4 entry lost")
		}
		if mv, hit, _ := a.moveOf(0, 3, oldD, newD, 0); !hit || mv != narrow {
			t.Error("np=3 entry lost")
		}
		return nil
	})
}

func TestGhostExchange1D(t *testing.T) {
	run(t, 3, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 3).Whole()
		dom := index.Dim(12)
		d := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		a := New(ctx, "A", dom, d, WithGhost(2))
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0] * p[0]) })
		ctx.Barrier()
		a.ExchangeAllGhosts(ctx)
		l := a.Local(ctx)
		lo, hi, _ := l.Segment()
		// ghosts within 2 of my segment hold neighbour values
		for i := lo[0] - 2; i <= hi[0]+2; i++ {
			if i < 1 || i > 12 {
				continue
			}
			if got := l.At(index.Point{i}); got != float64(i*i) {
				t.Errorf("rank %d: ghost/own at %d = %v want %d", ctx.Rank(), i, got, i*i)
			}
		}
		return nil
	})
}

func TestGhostExchange2DBlockBlock(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("G", 2, 2).Whole()
		dom := index.Dim(8, 8)
		d := dist.MustNew(dist.NewType(dist.BlockDim(), dist.BlockDim()), dom, tg)
		a := New(ctx, "A", dom, d, WithGhost(1, 1))
		a.FillFunc(ctx, val2)
		ctx.Barrier()
		a.ExchangeAllGhosts(ctx)
		l := a.Local(ctx)
		lo, hi, _ := l.Segment()
		// all face-adjacent ghosts valid (corners not exchanged)
		for i := lo[0]; i <= hi[0]; i++ {
			for _, j := range []int{lo[1] - 1, hi[1] + 1} {
				if j < 1 || j > 8 {
					continue
				}
				if got := l.At(index.Point{i, j}); got != val2(index.Point{i, j}) {
					t.Errorf("rank %d ghost (%d,%d) = %v", ctx.Rank(), i, j, got)
				}
			}
		}
		for j := lo[1]; j <= hi[1]; j++ {
			for _, i := range []int{lo[0] - 1, hi[0] + 1} {
				if i < 1 || i > 8 {
					continue
				}
				if got := l.At(index.Point{i, j}); got != val2(index.Point{i, j}) {
					t.Errorf("rank %d ghost (%d,%d) = %v", ctx.Rank(), i, j, got)
				}
			}
		}
		return nil
	})
}

func TestGhostExchangeBBlockThinSegments(t *testing.T) {
	run(t, 3, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 3).Whole()
		dom := index.Dim(10)
		// segments: p0: 1-1 (thin), p1: 2-2 (thin), p2: 3-10
		d := dist.MustNew(dist.NewType(dist.BBlockDim(1, 2, 10)), dom, tg)
		a := New(ctx, "A", dom, d, WithGhost(2))
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		a.ExchangeAllGhosts(ctx)
		l := a.Local(ctx)
		if ctx.Rank() == 2 {
			// p2's low ghost can only get 1 row from thin neighbour p1
			if got := l.At(index.Point{2}); got != 2 {
				t.Errorf("thin neighbour ghost = %v", got)
			}
		}
		if ctx.Rank() == 1 {
			if got := l.At(index.Point{1}); got != 1 {
				t.Errorf("p1 low ghost = %v", got)
			}
			if got := l.At(index.Point{3}); got != 3 {
				t.Errorf("p1 high ghost = %v", got)
			}
		}
		return nil
	})
}

func TestReplicatedArray(t *testing.T) {
	run(t, 4, func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("G", 2, 2).Whole()
		dom := index.Dim(6)
		d := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg) // replicated over dim 1
		a := New(ctx, "R", dom, d)
		// writes update every replica
		if ctx.Rank() == 0 {
			for i := 1; i <= 6; i++ {
				a.Set(ctx, index.Point{i}, float64(i*7))
			}
		}
		ctx.Barrier()
		// every owner reads the value locally
		l := a.Local(ctx)
		l.ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(p[0]*7) {
				t.Errorf("rank %d replica at %v = %v", ctx.Rank(), p, *v)
			}
		})
		if s, err := a.ReduceSum(ctx); err != nil {
			return err
		} else if s != float64(7*(1+2+3+4+5+6)) {
			t.Errorf("sum = %v", s)
		}
		got, err := a.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 && got[0] != 7 {
			t.Errorf("gather replicated = %v", got)
		}
		return nil
	})
}

func TestDArrayOverTCP(t *testing.T) {
	tcp, err := msg.NewTCPTransport(4)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(4, machine.WithTransport(tcp))
	defer m.Close()
	if err := m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("P", 4).Whole()
		dom := index.Dim(16)
		d1 := dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg)
		d2 := dist.MustNew(dist.NewType(dist.CyclicDim(1)), dom, tg)
		a := New(ctx, "A", dom, d1)
		a.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0]) })
		ctx.Barrier()
		if err := a.RedistributeTo(ctx, d2); err != nil {
			return err
		}
		bad := 0
		a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if *v != float64(p[0]) {
				bad++
			}
		})
		if bad != 0 {
			t.Errorf("tcp redistribute corrupted %d values", bad)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
