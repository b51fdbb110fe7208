package darray

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/redist"
)

// fuzzInput decodes a FuzzDistribute input.  Every byte string decodes to
// a valid crossing (a missing byte reads 0), so the fuzzer spends no time
// on rejected inputs:
//
//	np     1 + b%6 ranks
//	rank   1 + b%2 dimensions, then 1 + b%16 per extent
//	old    a distribution (below)
//	new    a distribution
//	flags  b%4 == 3: NOTRANSFER; b&4: over TCP (bare), else over channels
//
// A distribution is a processor array — b%3: 0 a line of np, 1 a line of
// 1 + b'%np (ranks past it hold nothing), 2 an a×(np/a) grid, a the
// b'-th divisor of np — then one byte per array dimension: b%4 is ':',
// BLOCK, CYCLIC(1 + b'%4) or, at 3, B_BLOCK (b&4 == 0) or S_BLOCK, whose
// blocks take one byte per processor (each block 0..extent elements, the
// last block what is left, so blocks may be empty).  A dimension past
// the processor array's rank is ':', so a grid or an elided dimension
// replicates.
type fuzzInput struct {
	b []byte
}

func (in *fuzzInput) next() int {
	if len(in.b) == 0 {
		return 0
	}
	v := int(in.b[0])
	in.b = in.b[1:]
	return v
}

// procShape decodes a processor array's extents for np ranks.
func (in *fuzzInput) procShape(np int) []int {
	switch in.next() % 3 {
	case 1:
		return []int{1 + in.next()%np}
	case 2:
		var divs []int
		for a := 1; a <= np; a++ {
			if np%a == 0 {
				divs = append(divs, a)
			}
		}
		a := divs[in.next()%len(divs)]
		return []int{a, np / a}
	}
	return []int{np}
}

// distSpec is a decoded distribution: a processor array's extents and
// one spec per array dimension.
type distSpec struct {
	shape []int
	specs []dist.DimSpec
}

// build makes the distribution of dom on m.
func (s distSpec) build(m *machine.Machine, dom index.Domain) *dist.Distribution {
	tg := m.ProcsDim(fmt.Sprint("P", s.shape), s.shape...).Whole()
	return dist.MustNew(dist.NewType(s.specs...), dom, tg)
}

// dist decodes one distribution of dom over np ranks.
func (in *fuzzInput) dist(dom index.Domain, np int) distSpec {
	shape := in.procShape(np)
	specs := make([]dist.DimSpec, dom.Rank())
	td := 0
	for k := range specs {
		b := in.next()
		if b%4 == 0 || td == len(shape) {
			specs[k] = dist.ElidedDim()
			continue
		}
		switch b % 4 {
		case 1:
			specs[k] = dist.BlockDim()
		case 2:
			specs[k] = dist.CyclicDim(1 + in.next()%4)
		case 3:
			n, bounds := dom.Extent(k), make([]int, shape[td])
			hi := 0
			for i := range bounds {
				hi = min(n, hi+in.next()%(n+1))
				bounds[i] = hi
			}
			bounds[len(bounds)-1] = n
			if b&4 == 0 {
				specs[k] = dist.BBlockDim(bounds...)
				break
			}
			for i := len(bounds) - 1; i > 0; i-- {
				bounds[i] -= bounds[i-1]
			}
			specs[k] = dist.SBlockDim(bounds...)
		}
		td++
	}
	return distSpec{shape, specs}
}

// fuzzSeeds are FuzzDistribute's corpus.  The first is the replicated
// crossing (:,:) -> (BLOCK,:) of a 13x1 array on four ranks: every rank
// already holds its new block, so the move sends nothing.  Seeds with
// flags 4 run over TCP: their offers travel framed, gathered from
// storage runs.  Then come four crossings of CYCLIC(2), whose transfers
// are several rects each, on both transports, and five of S_BLOCK and
// B_BLOCK with empty blocks, replicated sources and NOTRANSFER among them.
var fuzzSeeds = [][]byte{
	{3, 1, 12, 0, 0, 0, 0, 0, 1, 0, 0},         // 13x1 (:,:) -> (BLOCK,:), P=4
	{3, 1, 12, 0, 0, 0, 0, 0, 1, 0, 3},         // the same under NOTRANSFER
	{3, 1, 12, 0, 0, 1, 0, 0, 0, 0, 0},         // and back: (BLOCK,:) -> (:,:)
	{5, 1, 11, 7, 2, 1, 1, 1, 0, 1, 0, 0},      // 12x8 (BLOCK,BLOCK) on 2x3 -> (BLOCK,:) on 6
	{5, 1, 9, 9, 2, 2, 1, 0, 2, 1, 1, 2, 1, 0}, // 10x10 (BLOCK,:) on 3x2 -> (BLOCK,CYCLIC(2)) on 2x3
	{5, 0, 15, 0, 1, 0, 2, 0, 0},               // 16 BLOCK -> CYCLIC(1) on 6
	{3, 0, 13, 0, 3, 3, 0, 9, 0, 0, 1, 0},      // 14 B_BLOCK(3,3,12,14) -> BLOCK on 4
	{4, 1, 6, 4, 0, 2, 0, 0, 0, 0, 1, 0},       // 7x5 (CYCLIC(1),:) -> (:,BLOCK) on 5
	{3, 1, 7, 5, 2, 1, 0, 1, 0, 2, 2, 0, 0},    // 8x6 (:,BLOCK) on 2x2 -> (CYCLIC(3),:) on 4
	{2, 1, 5, 5, 1, 1, 1, 0, 0, 1, 0, 0},       // 6x6 (BLOCK,:) on 2 of 3 -> (BLOCK,:) on 3
	{0, 1, 4, 4, 0, 1, 0, 0, 0, 3, 0, 0},       // 5x5 (BLOCK,:) -> (:,B_BLOCK) on 1
	{1, 0, 8, 2, 0, 0, 0, 1, 0},                // 9 (:) on 1x2 -> BLOCK on 2
	{3, 1, 7, 3, 2, 1, 1, 0, 2, 1, 0, 1, 0},    // 8x4 (BLOCK,:) -> (:,BLOCK), both on 2x2
	{5, 1, 11, 5, 2, 2, 1, 0, 0, 0, 1, 3},      // 12x6 (BLOCK,:) on 3x2 -> (:,BLOCK) on 6, NOTRANSFER
	{3, 1, 12, 0, 0, 0, 0, 0, 1, 0, 4},         // 13x1 (:,:) -> (BLOCK,:), P=4, TCP
	{5, 1, 11, 7, 2, 1, 1, 1, 0, 1, 0, 4},      // 12x8 (BLOCK,BLOCK) on 2x3 -> (BLOCK,:) on 6, TCP
	{3, 1, 7, 3, 2, 1, 1, 0, 2, 1, 0, 1, 4},    // 8x4 (BLOCK,:) -> (:,BLOCK), both on 2x2, TCP
	{5, 0, 15, 0, 1, 0, 2, 0, 4},               // 16 BLOCK -> CYCLIC(1) on 6, TCP
	{1, 0, 15, 0, 2, 1, 0, 2, 2, 0},            // 16 CYCLIC(2) -> CYCLIC(3) on 2
	{1, 0, 15, 0, 2, 1, 0, 2, 2, 4},            // the same over TCP
	{3, 1, 15, 4, 0, 1, 0, 0, 2, 1, 0, 0},      // 16x5 (BLOCK,:) -> (CYCLIC(2),:) on 4
	{3, 1, 15, 4, 0, 1, 0, 0, 2, 1, 0, 4},      // the same over TCP

	{3, 0, 15, 0, 7, 0, 5, 0, 0, 0, 3, 3, 0, 9, 0, 0},            // 16 S_BLOCK(0,5,0,11) -> B_BLOCK(3,3,12,16) on 4
	{3, 0, 15, 0, 7, 0, 5, 0, 0, 0, 3, 3, 0, 9, 0, 4},            // the same over TCP
	{3, 0, 15, 0, 7, 0, 5, 0, 0, 0, 3, 3, 0, 9, 0, 3},            // the same under NOTRANSFER
	{5, 1, 9, 5, 2, 1, 7, 0, 0, 1, 0, 7, 2, 0, 3, 0, 0, 0, 0, 0}, // 10x6 (S_BLOCK(0,10),BLOCK) on 2x3 -> (S_BLOCK(2,0,3,0,0,5),:) on 6
	{3, 0, 11, 2, 1, 7, 0, 0, 0, 7, 3, 0, 4, 0, 0},               // 12 S_BLOCK(0,12) on 2x2 (replicated) -> S_BLOCK(3,0,4,5) on 4
}

// FuzzDistribute moves an array between two decoded distributions on a
// machine over channels or bare TCP (no CRC layer, so the bytes are the
// payload's) and holds every rank's schedule to the per-peer reference
// (referenceSchedule) and the move to three oracles computed
// from the distributions alone: every value arrives bit-exact (under
// NOTRANSFER, what a rank held keeps its value and the rest reads 0); the
// payload is 8 bytes for every element a rank owns under the new mapping
// but held under none of its old; and the data messages are the ordered
// (sender, receiver) pairs with such an element, the sender being the
// element's primary old owner.  Over channels every transfer is pulled
// straight out of the sender's storage, so no wire byte is ever
// resident.  `make fuzz-distribute` runs it beyond the corpus.
func FuzzDistribute(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in := &fuzzInput{b: b}
		np := 1 + in.next()%6
		exts := make([]int, 1+in.next()%2)
		for k := range exts {
			exts[k] = 1 + in.next()%16
		}
		dom := index.Dim(exts...)
		oldS, newS := in.dist(dom, np), in.dist(dom, np)
		flags := in.next()
		noTransfer, transport := flags%4 == 3, "chan"
		if flags&4 != 0 {
			transport = "tcp"
		}
		val := func(p index.Point) float64 {
			v := float64(p[0])
			if len(p) > 1 {
				v += 100 * float64(p[1])
			}
			return v
		}
		runOn(t, transport, np, nil, func(ctx *machine.Ctx) error {
			ds := ctx.CollectiveOnce(func() any {
				m := ctx.Machine()
				return [2]*dist.Distribution{oldS.build(m, dom), newS.build(m, dom)}
			}).([2]*dist.Distribution)
			oldD, newD := ds[0], ds[1]
			var opts []RedistOption
			if noTransfer {
				opts = append(opts, NoTransfer())
			}
			a := New(ctx, "F", dom, oldD)
			a.FillFunc(ctx, val)
			st := ctx.Machine().Stats()
			before := st.Snapshot()
			if err := ctx.Barrier(); err != nil {
				return err
			}
			if err := a.RedistributeTo(ctx, newD, opts...); err != nil {
				return err
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			rank := ctx.Rank()
			a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
				want := val(p)
				if noTransfer && !oldD.IsLocal(rank, p) {
					want = 0
				}
				if *v != want {
					t.Errorf("%v -> %v: rank %d holds %v at %v, want %v", oldD, newD, rank, *v, p, want)
				}
			})
			if rank != 0 {
				return nil
			}
			for r := 0; r < np; r++ {
				if d := scheduleDiff(redist.Build(oldD, newD, r, np), referenceSchedule(oldD, newD, r, np)); d != "" {
					t.Errorf("%v -> %v, rank %d of %d: %s", oldD, newD, r, np, d)
				}
			}
			var wantBytes int64
			pairs := map[[2]int]bool{}
			for r := 0; r < np && !noTransfer; r++ {
				newD.LocalGrid(r).ForEach(func(p index.Point) bool {
					if !oldD.IsLocal(r, p) {
						wantBytes += 8
						pairs[[2]int{oldD.Owner(p), r}] = true
					}
					return true
				})
			}
			d := st.Snapshot().Sub(before)
			if got := d.TotalBytes(); got != wantBytes {
				t.Errorf("%v -> %v on %d ranks: moved %d bytes, want %d", oldD, newD, np, got, wantBytes)
			}
			if got := d.TotalDataMsgs(); got != int64(len(pairs)) {
				t.Errorf("%v -> %v on %d ranks: sent %d data messages, want %d", oldD, newD, np, got, len(pairs))
			}
			if peak := st.PeakWireBytes(); transport == "chan" && peak != 0 {
				t.Errorf("%v -> %v on %d ranks over channels: %d wire bytes resident at peak, want 0", oldD, newD, np, peak)
			}
			return nil
		})
	})
}
