package dist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/machine"
)

// target returns a 1-D processor section of np processors.
func target1(t *testing.T, np int) Target {
	t.Helper()
	m := machine.New(np)
	t.Cleanup(func() { m.Close() })
	return m.ProcsDim("P", np).Whole()
}

// target2 returns a p0 x p1 processor section.
func target2(t *testing.T, p0, p1 int) Target {
	t.Helper()
	m := machine.New(p0 * p1)
	t.Cleanup(func() { m.Close() })
	return m.ProcsDim("R", p0, p1).Whole()
}

func TestBlockOwnership(t *testing.T) {
	tg := target1(t, 3)
	d := MustNew(NewType(BlockDim()), index.Dim(10), tg)
	// ceil(10/3)=4: p0: 1-4, p1: 5-8, p2: 9-10
	wantOwner := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i := 1; i <= 10; i++ {
		if got := d.Owner(index.Point{i}); got != wantOwner[i-1] {
			t.Errorf("owner(%d) = %d want %d", i, got, wantOwner[i-1])
		}
	}
	if c := d.LocalCount(0); c != 4 {
		t.Errorf("count p0 = %d", c)
	}
	if c := d.LocalCount(2); c != 2 {
		t.Errorf("count p2 = %d", c)
	}
	seg, ok := d.Segment(2)
	if !ok || seg.Lo[0] != 9 || seg.Hi[0] != 10 {
		t.Errorf("segment p2 = %v ok=%v", seg, ok)
	}
}

func TestCyclicOwnership(t *testing.T) {
	tg := target1(t, 2)
	d := MustNew(NewType(CyclicDim(3)), index.Dim(10), tg)
	// k=3, np=2: 1-3→p0, 4-6→p1, 7-9→p0, 10→p1
	owners := map[int]int{1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 0, 8: 0, 9: 0, 10: 1}
	for i, w := range owners {
		if got := d.Owner(index.Point{i}); got != w {
			t.Errorf("owner(%d) = %d want %d", i, got, w)
		}
	}
	if d.LocalCount(0) != 6 || d.LocalCount(1) != 4 {
		t.Errorf("counts = %d,%d", d.LocalCount(0), d.LocalCount(1))
	}
	if _, ok := d.Segment(0); ok {
		t.Error("cyclic should not report a contiguous segment")
	}
	// grid partition: disjoint, total 10
	g0 := d.LocalGrid(0).Dims[0]
	g1 := d.LocalGrid(1).Dims[0]
	if g0.Count()+g1.Count() != 10 {
		t.Errorf("grids don't cover: %v %v", g0, g1)
	}
	if len(g0.Intersect(g1)) != 0 {
		t.Errorf("grids overlap: %v", g0.Intersect(g1))
	}
}

func TestSBlockOwnership(t *testing.T) {
	tg := target1(t, 3)
	d := MustNew(NewType(SBlockDim(2, 5, 3)), index.Dim(10), tg)
	if d.Owner(index.Point{2}) != 0 || d.Owner(index.Point{3}) != 1 || d.Owner(index.Point{7}) != 1 || d.Owner(index.Point{8}) != 2 {
		t.Error("S_BLOCK owners wrong")
	}
	if d.LocalCount(1) != 5 {
		t.Errorf("count p1 = %d", d.LocalCount(1))
	}
	// invalid: sizes don't sum
	if _, err := New(NewType(SBlockDim(2, 2, 2)), index.Dim(10), tg); err == nil {
		t.Error("S_BLOCK sum mismatch should fail")
	}
	if _, err := New(NewType(SBlockDim(5, 5)), index.Dim(10), tg); err == nil {
		t.Error("S_BLOCK wrong processor count should fail")
	}
}

func TestBBlockOwnership(t *testing.T) {
	tg := target1(t, 4)
	// bounds: p0: 1-3, p1: 4-4, p2: (empty), p3: 5-10
	d := MustNew(NewType(BBlockDim(3, 4, 4, 10)), index.Dim(10), tg)
	if d.Owner(index.Point{3}) != 0 || d.Owner(index.Point{4}) != 1 || d.Owner(index.Point{5}) != 3 {
		t.Error("B_BLOCK owners wrong")
	}
	if d.LocalCount(2) != 0 {
		t.Errorf("empty segment count = %d", d.LocalCount(2))
	}
	if d.LocalCount(3) != 6 {
		t.Errorf("p3 count = %d", d.LocalCount(3))
	}
	// invalid: last bound != upper bound
	if _, err := New(NewType(BBlockDim(3, 4, 5, 9)), index.Dim(10), tg); err == nil {
		t.Error("B_BLOCK bad last bound should fail")
	}
	if _, err := New(NewType(BBlockDim(5, 4, 6, 10)), index.Dim(10), tg); err == nil {
		t.Error("B_BLOCK decreasing bounds should fail")
	}
}

func TestPaperExample1(t *testing.T) {
	// REAL C(10,10,10) DIST(BLOCK,BLOCK,:) TO R(1:2,1:2)
	// δC(i,j,k) = {R(⌈i/5⌉,⌈j/5⌉)} for all k.
	tg := target2(t, 2, 2)
	d := MustNew(NewType(BlockDim(), BlockDim(), ElidedDim()), index.Dim(10, 10, 10), tg)
	for _, c := range []struct {
		i, j   int
		coords []int
	}{
		{1, 1, []int{0, 0}}, {5, 5, []int{0, 0}}, {6, 5, []int{1, 0}},
		{5, 6, []int{0, 1}}, {10, 10, []int{1, 1}},
	} {
		for _, k := range []int{1, 5, 10} {
			owner := d.Owner(index.Point{c.i, c.j, k})
			wantRank := c.coords[0] + 2*c.coords[1] // column-major 2x2
			if owner != wantRank {
				t.Errorf("owner(%d,%d,%d) = %d want %d", c.i, c.j, k, owner, wantRank)
			}
		}
	}
	// every rank owns a 5x5x10 brick
	for r := 0; r < 4; r++ {
		if c := d.LocalCount(r); c != 250 {
			t.Errorf("rank %d count = %d", r, c)
		}
	}
	if d.Replicated() {
		t.Error("fully bound distribution should not replicate")
	}
}

func TestReplication(t *testing.T) {
	// 1-D BLOCK onto a 2x3 target: replicated across the 3-wide dim.
	tg := target2(t, 2, 3)
	d := MustNew(NewType(BlockDim()), index.Dim(8), tg)
	if !d.Replicated() || d.ReplicationDegree() != 3 {
		t.Fatalf("replication degree = %d", d.ReplicationDegree())
	}
	owners := d.Owners(index.Point{1})
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	// element 1 owned by coord (0, 0..2): ranks 0, 2, 4 (column-major 2x3)
	want := map[int]bool{0: true, 2: true, 4: true}
	for _, r := range owners {
		if !want[r] {
			t.Errorf("unexpected owner %d", r)
		}
		if !d.IsLocal(r, index.Point{1}) {
			t.Errorf("IsLocal(%d) false for owner", r)
		}
	}
	if d.IsLocal(1, index.Point{1}) {
		t.Error("rank 1 should not own element 1")
	}
	// each replica owns the same local set
	if !d.LocalGrid(0).Dims[0].Equal(d.LocalGrid(2).Dims[0]) {
		t.Error("replicas should own identical sets")
	}
}

func TestTooManyDistributedDims(t *testing.T) {
	tg := target1(t, 4)
	if _, err := New(NewType(BlockDim(), BlockDim()), index.Dim(4, 4), tg); err == nil {
		t.Fatal("2 distributed dims onto 1-D target should fail")
	}
}

func TestRankMismatch(t *testing.T) {
	tg := target1(t, 2)
	if _, err := New(NewType(BlockDim()), index.Dim(4, 4), tg); err == nil {
		t.Fatal("type rank 1 vs domain rank 2 should fail")
	}
}

func TestLocalGridPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tg := target2(t, 2, 3)
	specsFor := func(extent int, np int) []DimSpec {
		sizes := make([]int, np)
		rem := extent
		for i := 0; i < np-1; i++ {
			s := rng.Intn(rem + 1)
			sizes[i] = s
			rem -= s
		}
		sizes[np-1] = rem
		bounds := make([]int, np)
		acc := 0
		for i, s := range sizes {
			acc += s
			bounds[i] = acc // domain starts at 1 so bound == prefix sum
		}
		return []DimSpec{
			BlockDim(), CyclicDim(1 + rng.Intn(4)),
			SBlockDim(sizes...), BBlockDim(bounds...),
			{Kind: Cyclic, K: 2, Phase: rng.Intn(17)},
		}
	}
	for trial := 0; trial < 60; trial++ {
		e0, e1 := 5+rng.Intn(20), 5+rng.Intn(20)
		dom := index.Dim(e0, e1)
		s0 := specsFor(e0, 2)[rng.Intn(5)]
		s1 := specsFor(e1, 3)[rng.Intn(5)]
		// S_BLOCK/B_BLOCK specs generated for np=2 only work in dim 0
		if s0.Kind == SBlock || s0.Kind == BBlock {
			s0 = BlockDim()
		}
		if s1.Kind == SBlock {
			s1 = SBlockDim(sizesFor(rng, e1, 3)...)
		}
		if s1.Kind == BBlock {
			s1 = BBlockDim(boundsFor(rng, e1, 3)...)
		}
		d, err := New(NewType(s0, s1), dom, tg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Partition: every element owned exactly once, grids match Owner.
		total := 0
		for r := 0; r < 6; r++ {
			g := d.LocalGrid(r)
			total += g.Count()
			g.ForEach(func(p index.Point) bool {
				if d.Owner(p.Clone()) != r {
					t.Fatalf("trial %d: grid of rank %d contains %v owned by %d (dist %v)", trial, r, p, d.Owner(p), d)
				}
				return true
			})
		}
		if total != dom.Size() {
			t.Fatalf("trial %d: grids cover %d of %d (dist %v)", trial, total, dom.Size(), d)
		}
	}
}

func sizesFor(rng *rand.Rand, extent, np int) []int {
	sizes := make([]int, np)
	rem := extent
	for i := 0; i < np-1; i++ {
		s := rng.Intn(rem + 1)
		sizes[i] = s
		rem -= s
	}
	sizes[np-1] = rem
	return sizes
}

func boundsFor(rng *rand.Rand, extent, np int) []int {
	sizes := sizesFor(rng, extent, np)
	bounds := make([]int, np)
	acc := 0
	for i, s := range sizes {
		acc += s
		bounds[i] = acc
	}
	return bounds
}

func TestTypeEqualAndString(t *testing.T) {
	a := NewType(BlockDim(), CyclicDim(1))
	b := NewType(BlockDim(), CyclicDim(0)) // CYCLIC == CYCLIC(1)
	if !a.Equal(b) {
		t.Error("CYCLIC and CYCLIC(1) should be equal")
	}
	if a.Equal(NewType(BlockDim(), CyclicDim(2))) {
		t.Error("different K should differ")
	}
	if a.String() != "(BLOCK,CYCLIC)" {
		t.Errorf("string = %s", a.String())
	}
	c := NewType(SBlockDim(1, 2), ElidedDim())
	if c.String() != "(S_BLOCK[1 2],:)" {
		t.Errorf("string = %s", c.String())
	}
	if c.DistributedDims() != 1 {
		t.Error("distributed dims")
	}
}

func TestDistributionEqual(t *testing.T) {
	tg := target1(t, 2)
	a := MustNew(NewType(BlockDim()), index.Dim(10), tg)
	b := MustNew(NewType(BlockDim()), index.Dim(10), tg)
	if !a.Equal(b) {
		t.Error("identical distributions should be equal")
	}
	c := MustNew(NewType(CyclicDim(1)), index.Dim(10), tg)
	if a.Equal(c) {
		t.Error("block != cyclic")
	}
	if a.Equal(nil) {
		t.Error("non-nil != nil")
	}
}

func TestFingerprintDistinguishesMappings(t *testing.T) {
	m := machine.New(4)
	t.Cleanup(func() { m.Close() })
	tg := m.ProcsDim("FP", 2, 2).Whole()
	dom := index.Dim(8, 8)
	a := MustNew(NewType(BlockDim(), CyclicDim(1)), dom, tg)
	b := MustNew(NewType(BlockDim(), CyclicDim(1)), dom, tg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal mappings must share a fingerprint")
	}
	// transposed binding through alignment has a different fingerprint
	// even though kinds coincide
	c := MustNew(NewType(CyclicDim(1), BlockDim()), dom, tg)
	d, err := Construct(Transpose2D(), c, dom)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() == a.Fingerprint() {
		t.Fatal("different bindings must not collide")
	}
	// different K
	e := MustNew(NewType(BlockDim(), CyclicDim(2)), dom, tg)
	if e.Fingerprint() == a.Fingerprint() {
		t.Fatal("different parameters must not collide")
	}
	// different domains
	f := MustNew(NewType(BlockDim(), CyclicDim(1)), index.Dim(8, 9), tg)
	if f.Fingerprint() == a.Fingerprint() {
		t.Fatal("different domains must not collide")
	}
}

func TestLocalShapeAndReplicationDegree(t *testing.T) {
	m := machine.New(6)
	t.Cleanup(func() { m.Close() })
	tg := m.ProcsDim("RS", 2, 3).Whole()
	d := MustNew(NewType(BlockDim()), index.Dim(10), tg)
	if d.ReplicationDegree() != 3 {
		t.Fatalf("degree = %d", d.ReplicationDegree())
	}
	if sh := d.LocalGrid(0).Dims[0].Count(); sh != 5 {
		t.Fatalf("shape = %v", sh)
	}
	if !d.IsPrimaryRank(0) || d.IsPrimaryRank(2) {
		t.Fatal("primary detection wrong")
	}
}

// TestIs: Is accepts exactly the mapping New(NewType(specs...), dom,
// target) builds — and a distribution New built from the same specifiers
// — and refuses one that differs in any field: a specifier's kind, K,
// phase, sizes or bounds, the rank, the domain, the target object (even
// one printing the same), the binding (a transposed alignment) or a pin.
// It allocates nothing.
func TestIs(t *testing.T) {
	m := machine.New(4)
	defer m.Close()
	line, grid := m.ProcsDim("P", 4).Whole(), m.ProcsDim("R", 2, 2).Whole()
	twin := m.ProcsDim("P", 4).Section([3]int{1, 4, 1}) // prints as line does, another object
	dom := index.Dim(16, 12)
	specs := []DimSpec{BlockDim(), CyclicDim(3)}
	d := MustNew(NewType(specs...), dom, grid)
	if !d.Is(specs, dom, grid) {
		t.Fatalf("%v is not the mapping it was built from", d)
	}
	if n := testing.AllocsPerRun(20, func() { d.Is(specs, dom, grid) }); n != 0 {
		t.Errorf("Is allocates %v", n)
	}
	bb := MustNew(NewType(BBlockDim(3, 9, 16)), index.Dim(16), m.ProcsDim("T", 3).Whole())
	sb := MustNew(NewType(SBlockDim(5, 6, 5)), index.Dim(16), m.ProcsDim("T", 3).Whole())
	tr, err := Construct(Transpose2D(), d, index.Dim(12, 16))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Construct(NewAlignment(Axis(0), AxisConst(2)), MustNew(NewType(BlockDim(), BlockDim()), index.Dim(16, 16), grid), index.Dim(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		d      *Distribution
		specs  []DimSpec
		dom    index.Domain
		target Target
		want   bool
	}{
		{"kind", d, []DimSpec{BlockDim(), BlockDim()}, dom, grid, false},
		{"K", d, []DimSpec{BlockDim(), CyclicDim(2)}, dom, grid, false},
		{"phase", d, []DimSpec{BlockDim(), {Kind: Cyclic, K: 3, Phase: 1}}, dom, grid, false},
		{"rank", d, []DimSpec{BlockDim()}, dom, grid, false},
		{"domain", d, specs, index.Dim(16, 13), grid, false},
		{"target", d, specs, dom, line, false},
		{"bounds", bb, []DimSpec{BBlockDim(3, 9, 16)}, index.Dim(16), bb.Target(), true},
		{"bounds differ", bb, []DimSpec{BBlockDim(3, 10, 16)}, index.Dim(16), bb.Target(), false},
		{"sizes", sb, []DimSpec{SBlockDim(5, 6, 5)}, index.Dim(16), sb.Target(), true},
		{"sizes differ", sb, []DimSpec{SBlockDim(6, 5, 5)}, index.Dim(16), sb.Target(), false},
		{"twin target", MustNew(NewType(BlockDim()), index.Dim(16), line), []DimSpec{BlockDim()}, index.Dim(16), twin, false},
		{"transposed binding", tr, tr.DistType().Dims, index.Dim(12, 16), grid, false},
		{"pinned", pinned, pinned.DistType().Dims, index.Dim(16), grid, false},
	} {
		if got := c.d.Is(c.specs, c.dom, c.target); got != c.want {
			t.Errorf("%s: %v.Is(%v, %v, %v) = %v, want %v", c.name, c.d, c.specs, c.dom, c.target, got, c.want)
		}
	}
}

// TestOwnerAllocs: Owner, and Owners without replication, read the
// distribution's rank table and allocate nothing — BLOCK×BLOCK on a 2×2
// grid and B_BLOCK on a line.  On those and on a replicated mapping,
// Owners lists exactly the ranks IsLocal accepts, and Owner is the
// primary among them.  LocalCount, also allocation-free, is the size of
// LocalGrid on every rank, CYCLIC(3) included.
func TestOwnerAllocs(t *testing.T) {
	grid := MustNew(NewType(BlockDim(), BlockDim()), index.Dim(9, 7), target2(t, 2, 2))
	bblock := MustNew(NewType(BBlockDim(3, 4, 9, 12)), index.Dim(12), target1(t, 4))
	repl := MustNew(NewType(ElidedDim(), BlockDim()), index.Dim(3, 8), target2(t, 2, 3))
	cyclic := MustNew(NewType(CyclicDim(3), BlockDim()), index.Dim(20, 7), target2(t, 2, 2))
	for _, d := range []*Distribution{grid, bblock, repl, cyclic} {
		for r := range d.Target().Size() + 2 {
			if n := d.LocalCount(r); n != d.LocalGrid(r).Count() {
				t.Errorf("%v: LocalCount(%d) = %d, LocalGrid has %d", d, r, n, d.LocalGrid(r).Count())
			}
		}
		if n := testing.AllocsPerRun(100, func() { d.LocalCount(1) }); n != 0 {
			t.Errorf("%v: LocalCount allocates %.1f", d, n)
		}
	}
	for _, d := range []*Distribution{grid, bblock, repl} {
		d.Domain().WholeSection().ForEach(func(p index.Point) bool {
			var want []int
			for r := range d.Target().Size() {
				if d.IsLocal(r, p) {
					want = append(want, r)
				}
			}
			got := slices.Clone(d.Owners(p))
			slices.Sort(got)
			if o := d.Owner(p); !slices.Equal(got, want) || !slices.Contains(want, o) || !d.IsPrimaryRank(o) {
				t.Fatalf("%v at %v: Owners %v, Owner %d; IsLocal holds on %v", d, p, got, o, want)
			}
			return true
		})
	}
	for _, d := range []*Distribution{grid, bblock} {
		p := make(index.Point, d.Domain().Rank())
		for k := range p {
			p[k] = d.Domain().Hi[k]
		}
		if n := testing.AllocsPerRun(100, func() { d.Owner(p) }); n != 0 {
			t.Errorf("%v: Owner allocates %.1f", d, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.Owners(p) }); n != 0 {
			t.Errorf("%v: Owners allocates %.1f", d, n)
		}
	}
}
