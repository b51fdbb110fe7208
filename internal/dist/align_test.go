package dist

import (
	"math/rand"
	"testing"

	"repro/internal/index"
)

func TestAlignmentValidate(t *testing.T) {
	aDom := index.Dim(10)
	bDom := index.Dim(10, 10)
	if err := NewAlignment(Axis(0), AxisConst(3)).Validate(aDom, bDom); err != nil {
		t.Fatalf("valid alignment rejected: %v", err)
	}
	if err := NewAlignment(Axis(0)).Validate(aDom, bDom); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if err := NewAlignment(Axis(0), AxisConst(11)).Validate(aDom, bDom); err == nil {
		t.Fatal("out-of-bounds constant accepted")
	}
	if err := NewAlignment(AxisAffine(0, 1, 5), AxisConst(1)).Validate(aDom, bDom); err == nil {
		t.Fatal("image overflow accepted")
	}
	if err := NewAlignment(Axis(0), Axis(0)).Validate(aDom, bDom); err == nil {
		t.Fatal("doubly-referenced source dim accepted")
	}
	// stride-2 image of 1..5 is 2..10: fits
	if err := NewAlignment(AxisAffine(0, 2, 0), AxisConst(1)).Validate(index.Dim(5), bDom); err != nil {
		t.Fatalf("stride alignment rejected: %v", err)
	}
}

// checkConstruct verifies δ_A(i) = δ_B(α(i)) for every point of A.
func checkConstruct(t *testing.T, al Alignment, bDist *Distribution, aDom index.Domain) *Distribution {
	t.Helper()
	aDist, err := Construct(al, bDist, aDom)
	if err != nil {
		t.Fatalf("construct: %v", err)
	}
	aDom.WholeSection().ForEach(func(p index.Point) bool {
		ap := make(index.Point, len(al.Maps)) // α(p)
		for j, m := range al.Maps {
			ap[j] = m.ConstVal
			if !m.Const {
				ap[j] = m.stride()*p[m.SrcDim] + m.Offset
			}
		}
		want := bDist.Owner(ap)
		got := aDist.Owner(p)
		if got != want {
			t.Fatalf("owner_A%v = %d, owner_B(α%v) = %d (A: %v, B: %v)", p, got, p, want, aDist, bDist)
		}
		return true
	})
	return aDist
}

func TestConstructIdentity(t *testing.T) {
	tg := target1(t, 3)
	b := MustNew(NewType(BlockDim()), index.Dim(12), tg)
	a := checkConstruct(t, Identity(1), b, index.Dim(12))
	// identity alignment over BLOCK derives a general block with the same
	// segments
	if a.LocalCount(0) != b.LocalCount(0) {
		t.Error("identity alignment should preserve counts")
	}
}

func TestConstructTranspose(t *testing.T) {
	tg := target2(t, 2, 2)
	// C(10,10) DIST(BLOCK, CYCLIC)
	c := MustNew(NewType(BlockDim(), CyclicDim(1)), index.Dim(10, 10), tg)
	// D(I,J) WITH C(J,I): D dim0 inherits C dim1 (CYCLIC on target dim 1),
	// D dim1 inherits C dim0 (BLOCK on target dim 0).
	d := checkConstruct(t, Transpose2D(), c, index.Dim(10, 10))
	typ := d.DistType()
	if typ.Dims[0].Kind != Cyclic || typ.Dims[1].Kind != BBlock && typ.Dims[1].Kind != Block {
		t.Errorf("derived type = %v", typ)
	}
	if d.ProcDim(0) != 1 || d.ProcDim(1) != 0 {
		t.Errorf("derived binding = %d,%d", d.ProcDim(0), d.ProcDim(1))
	}
}

func TestConstructOffsetBlock(t *testing.T) {
	tg := target1(t, 4)
	b := MustNew(NewType(BlockDim()), index.Dim(20), tg)
	// A(1:16) aligned with B(I+2): owner_A(x) = owner_B(x+2)
	al := NewAlignment(AxisAffine(0, 1, 2))
	a := checkConstruct(t, al, b, index.Dim(16))
	if a.DistType().Dims[0].Kind != BBlock {
		t.Errorf("offset block should derive B_BLOCK, got %v", a.DistType())
	}
}

func TestConstructOffsetCyclicPhase(t *testing.T) {
	tg := target1(t, 3)
	b := MustNew(NewType(CyclicDim(2)), index.Dim(30), tg)
	al := NewAlignment(AxisAffine(0, 1, 4))
	a := checkConstruct(t, al, b, index.Dim(26))
	spec := a.DistType().Dims[0]
	if spec.Kind != Cyclic || spec.Phase == 0 {
		t.Errorf("offset cyclic should derive phased CYCLIC, got %v", spec)
	}
}

func TestConstructStrideOverCyclicRejected(t *testing.T) {
	tg := target1(t, 2)
	b := MustNew(NewType(CyclicDim(1)), index.Dim(30), tg)
	al := NewAlignment(AxisAffine(0, 2, 0))
	if _, err := Construct(al, b, index.Dim(15)); err == nil {
		t.Fatal("stride over CYCLIC should be rejected")
	}
}

func TestConstructStrideOverBlock(t *testing.T) {
	tg := target1(t, 4)
	b := MustNew(NewType(BlockDim()), index.Dim(40), tg)
	al := NewAlignment(AxisAffine(0, 2, 0)) // A(i) ↦ B(2i)
	checkConstruct(t, al, b, index.Dim(20))
}

func TestConstructConstAxis(t *testing.T) {
	tg := target2(t, 2, 2)
	b := MustNew(NewType(BlockDim(), BlockDim()), index.Dim(10, 10), tg)
	// A(I) WITH B(I, 8): pins target dim 1 to owner of column 8 (coord 1)
	al := NewAlignment(Axis(0), AxisConst(8))
	a := checkConstruct(t, al, b, index.Dim(10))
	if a.Replicated() {
		t.Error("const axis should pin, not replicate")
	}
	// A's owners all have second coordinate 1: ranks 2,3 (column-major)
	for i := 1; i <= 10; i++ {
		o := a.Owner(index.Point{i})
		if o != 2 && o != 3 {
			t.Errorf("owner(%d) = %d, want in {2,3}", i, o)
		}
	}
}

func TestConstructUnreferencedSourceDim(t *testing.T) {
	tg := target1(t, 2)
	b := MustNew(NewType(BlockDim()), index.Dim(10), tg)
	// A(I,J) WITH B(I): J unreferenced → elided
	al := NewAlignment(Axis(0))
	a, err := Construct(al, b, index.Dim(10, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.DistType().Dims[1].Kind != Elided {
		t.Errorf("unreferenced dim should be elided: %v", a.DistType())
	}
	for j := 1; j <= 6; j++ {
		if a.Owner(index.Point{7, j}) != b.Owner(index.Point{7}) {
			t.Error("owner must not depend on unreferenced dim")
		}
	}
}

func TestConstructPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tg := target2(t, 2, 3)
	for trial := 0; trial < 40; trial++ {
		bn0, bn1 := 10+rng.Intn(20), 12+rng.Intn(20)
		bDom := index.Dim(bn0, bn1)
		specs0 := []DimSpec{BlockDim(), CyclicDim(1 + rng.Intn(3)), ElidedDim()}
		specs1 := []DimSpec{BlockDim(), CyclicDim(1 + rng.Intn(3)), ElidedDim()}
		b, err := New(NewType(specs0[rng.Intn(3)], specs1[rng.Intn(3)]), bDom, tg)
		if err != nil {
			t.Fatal(err)
		}
		// random alignment: transpose or identity, with small offsets
		o0, o1 := rng.Intn(3), rng.Intn(3)
		a0 := 4 + rng.Intn(bn0-4-o0)
		a1 := 4 + rng.Intn(bn1-4-o1)
		var al Alignment
		var aDom index.Domain
		if rng.Intn(2) == 0 {
			al = NewAlignment(AxisAffine(0, 1, o0), AxisAffine(1, 1, o1))
			aDom = index.Dim(a0, a1)
		} else {
			al = NewAlignment(AxisAffine(1, 1, o0), AxisAffine(0, 1, o1))
			aDom = index.Dim(a1, a0)
		}
		checkConstruct(t, al, b, aDom)
	}
}

func TestExtract(t *testing.T) {
	tg := target1(t, 3)
	b := MustNew(NewType(BlockDim()), index.Dim(12), tg)
	a, err := Extract(b, index.Dim(9))
	if err != nil {
		t.Fatal(err)
	}
	if !a.DistType().Equal(b.DistType()) {
		t.Error("extraction should preserve the distribution type")
	}
	// BLOCK re-applied to extent 9 on 3 procs: p0 1-3, p1 4-6, p2 7-9
	if a.Owner(index.Point{4}) != 1 {
		t.Error("extracted distribution owner wrong")
	}
	if _, err := Extract(b, index.Dim(4, 4)); err == nil {
		t.Error("rank mismatch extraction should fail")
	}
	// extraction of irregular dist onto different extent fails validation
	sb := MustNew(NewType(SBlockDim(4, 4, 4)), index.Dim(12), tg)
	if _, err := Extract(sb, index.Dim(9)); err == nil {
		t.Error("S_BLOCK extraction onto wrong extent should fail")
	}
}

func TestMatchingBasics(t *testing.T) {
	blockCyclic := NewType(BlockDim(), CyclicDim(2))
	if !NewPattern(PBlock(), PCyclic(2)).Matches(blockCyclic) {
		t.Error("exact match failed")
	}
	if NewPattern(PBlock(), PCyclic(3)).Matches(blockCyclic) {
		t.Error("wrong K matched")
	}
	if !NewPattern(PBlock(), PCyclicAny()).Matches(blockCyclic) {
		t.Error("CYCLIC(*) should match CYCLIC(2)")
	}
	if !NewPattern(PBlock(), PAny()).Matches(blockCyclic) {
		t.Error("(BLOCK,*) should match")
	}
	if !AnyPattern().Matches(blockCyclic) {
		t.Error("* should match everything")
	}
	// implicit trailing *: (BLOCK) matches (BLOCK, CYCLIC(2))
	if !NewPattern(PBlock()).Matches(blockCyclic) {
		t.Error("short pattern should pad with *")
	}
	if NewPattern(PBlock(), PCyclic(2), PAny()).Matches(blockCyclic) {
		t.Error("over-long pattern should not match")
	}
	// CYCLIC pattern matches phased CYCLIC of same K
	phased := NewType(DimSpec{Kind: Cyclic, K: 2, Phase: 5})
	if !NewPattern(PCyclic(2)).Matches(phased) {
		t.Error("phase should be ignored by matching")
	}
}

func TestMatchingIrregular(t *testing.T) {
	sb := NewType(SBlockDim(2, 3))
	if !NewPattern(PSBlock()).Matches(sb) {
		t.Error("S_BLOCK(*) should match")
	}
	if NewPattern(PBBlock()).Matches(sb) {
		t.Error("B_BLOCK pattern should not match S_BLOCK")
	}
	exact := NewPattern(DimPattern{Kind: SBlock, Sizes: []int{2, 3}})
	if !exact.Matches(sb) {
		t.Error("exact sizes should match")
	}
	wrong := NewPattern(DimPattern{Kind: SBlock, Sizes: []int{3, 2}})
	if wrong.Matches(sb) {
		t.Error("wrong sizes should not match")
	}
}

func TestPatternOf(t *testing.T) {
	typ := NewType(BlockDim(), CyclicDim(3), SBlockDim(1, 2), ElidedDim())
	if !PatternOf(typ).Matches(typ) {
		t.Error("PatternOf(t) must match t")
	}
	other := NewType(BlockDim(), CyclicDim(4), SBlockDim(1, 2), ElidedDim())
	if PatternOf(typ).Matches(other) {
		t.Error("PatternOf(t) must not match different K")
	}
}

func TestRangeAllows(t *testing.T) {
	// Paper Example 2: RANGE ((BLOCK, BLOCK), (*, CYCLIC))
	r := Range{
		NewPattern(PBlock(), PBlock()),
		NewPattern(PAny(), PCyclic(1)),
	}
	if !r.Allows(NewType(BlockDim(), BlockDim())) {
		t.Error("(BLOCK,BLOCK) should be allowed")
	}
	if !r.Allows(NewType(CyclicDim(5), CyclicDim(1))) {
		t.Error("(CYCLIC(5),CYCLIC) should be allowed via (*,CYCLIC)")
	}
	// Initial dist of Example 2 is (BLOCK, CYCLIC): allowed via (*, CYCLIC)
	if !r.Allows(NewType(BlockDim(), CyclicDim(1))) {
		t.Error("(BLOCK,CYCLIC) should be allowed")
	}
	if r.Allows(NewType(BlockDim(), CyclicDim(2))) {
		t.Error("(BLOCK,CYCLIC(2)) should be rejected")
	}
	var empty Range
	if !empty.Allows(NewType(BlockDim())) {
		t.Error("empty range allows everything")
	}
	if empty.String() != "RANGE(*)" || r.String() == "" {
		t.Error("strings")
	}
}

func TestConstructInheritsPins(t *testing.T) {
	tg := target2(t, 2, 2)
	b := MustNew(NewType(BlockDim(), BlockDim()), index.Dim(8, 8), tg)
	// A1(I) WITH B(I,3) pins dim1; A2(J) WITH A1... requires chaining
	// through the derived distribution.
	a1 := checkConstruct(t, NewAlignment(Axis(0), AxisConst(3)), b, index.Dim(8))
	a2 := checkConstruct(t, Identity(1), a1, index.Dim(8))
	for i := 1; i <= 8; i++ {
		if a2.Owner(index.Point{i}) != a1.Owner(index.Point{i}) {
			t.Error("chained construct must preserve owners")
		}
	}
}
