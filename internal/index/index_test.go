package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDomainBasics(t *testing.T) {
	d := Dim(10, 20)
	if d.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", d.Rank())
	}
	if d.Size() != 200 {
		t.Fatalf("size = %d, want 200", d.Size())
	}
	if d.Extent(0) != 10 || d.Extent(1) != 20 {
		t.Fatalf("extents = %d,%d", d.Extent(0), d.Extent(1))
	}
	if !d.Contains(Point{1, 1}) || !d.Contains(Point{10, 20}) {
		t.Fatal("corner points should be contained")
	}
	if d.Contains(Point{0, 1}) || d.Contains(Point{11, 20}) || d.Contains(Point{1}) {
		t.Fatal("out-of-domain points should not be contained")
	}
}

func TestDomainCustomBounds(t *testing.T) {
	d := NewDomain([2]int{-5, 5}, [2]int{0, 9})
	if d.Extent(0) != 11 || d.Extent(1) != 10 {
		t.Fatalf("extents = %d,%d", d.Extent(0), d.Extent(1))
	}
	if d.Size() != 110 {
		t.Fatalf("size = %d", d.Size())
	}
	if !d.Contains(Point{-5, 0}) {
		t.Fatal("lower corner missing")
	}
}

func TestDomainOffsetColumnMajor(t *testing.T) {
	d := Dim(3, 4)
	// Column-major: (1,1)=0, (2,1)=1, (3,1)=2, (1,2)=3 ...
	cases := []struct {
		p    Point
		want int
	}{
		{Point{1, 1}, 0},
		{Point{2, 1}, 1},
		{Point{3, 1}, 2},
		{Point{1, 2}, 3},
		{Point{3, 4}, 11},
	}
	for _, c := range cases {
		if got := d.Offset(c.p); got != c.want {
			t.Errorf("Offset(%v) = %d, want %d", c.p, got, c.want)
		}
		if back := d.At(c.want); !slices.Equal(back, c.p) {
			t.Errorf("At(%d) = %v, want %v", c.want, back, c.p)
		}
	}
}

func TestDomainOffsetRoundTripProperty(t *testing.T) {
	d := NewDomain([2]int{2, 9}, [2]int{-3, 7}, [2]int{1, 5})
	f := func(raw int) bool {
		off := ((raw % d.Size()) + d.Size()) % d.Size()
		return d.Offset(d.At(off)) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSectionBasics(t *testing.T) {
	s := NewSection([3]int{1, 10, 3}, [3]int{2, 2, 1})
	if s.Size() != 4 {
		t.Fatalf("size = %d, want 4 (1,4,7,10)", s.Size())
	}
	var pts []Point
	s.ForEach(func(p Point) bool { pts = append(pts, p.Clone()); return true })
	if len(pts) != 4 || !slices.Equal(pts[0], Point{1, 2}) || !slices.Equal(pts[3], Point{10, 2}) {
		t.Fatalf("iteration = %v", pts)
	}
}

func TestSectionEmptyAndEarlyStop(t *testing.T) {
	s := NewSection([3]int{5, 4, 1})
	if s.Size() != 0 {
		t.Fatalf("size = %d, want 0", s.Size())
	}
	calls := 0
	s.ForEach(func(Point) bool { calls++; return true })
	if calls != 0 {
		t.Fatal("empty section iterated")
	}
	s2 := NewSection([3]int{1, 10, 1})
	calls = 0
	s2.ForEach(func(Point) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("early stop after %d calls", calls)
	}
}

func TestRunBasics(t *testing.T) {
	r := NewRun(3, 17, 4) // 3 7 11 15
	if r.Count() != 4 || r.Hi != 15 {
		t.Fatalf("r = %v count=%d", r, r.Count())
	}
	if !r.Contains(11) || r.Contains(13) || r.Contains(19) {
		t.Fatal("containment wrong")
	}
	if r.IndexOf(15) != 3 || r.IndexOf(4) != -1 {
		t.Fatal("IndexOf wrong")
	}
	if r.At(2) != 11 {
		t.Fatal("At wrong")
	}
}

// brute-force intersection for cross-checking
func bruteIntersect(a, b Run) []int {
	var out []int
	for i := a.Lo; i <= a.Hi; i += a.Stride {
		if b.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

func TestIntersectRunsExamples(t *testing.T) {
	a := NewRun(0, 30, 3) // 0 3 6 ...
	b := NewRun(1, 30, 5) // 1 6 11 16 21 26
	c := IntersectRuns(a, b)
	want := []int{6, 21}
	got := indices(RunSet{c})
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// disjoint progressions: same stride, different phase
	if !IntersectRuns(NewRun(0, 100, 4), NewRun(1, 100, 4)).Empty() {
		t.Fatal("phase-disjoint runs must not intersect")
	}
	// disjoint windows
	if !IntersectRuns(NewRun(0, 10, 1), NewRun(11, 20, 1)).Empty() {
		t.Fatal("window-disjoint runs must not intersect")
	}
}

func TestIntersectRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		a := NewRun(rng.Intn(40)-20, rng.Intn(60)-10, 1+rng.Intn(8))
		b := NewRun(rng.Intn(40)-20, rng.Intn(60)-10, 1+rng.Intn(8))
		got := indices(RunSet{IntersectRuns(a, b)})
		want := bruteIntersect(a, b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: a=%v b=%v got %v want %v", trial, a, b, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: a=%v b=%v got %v want %v", trial, a, b, got, want)
			}
		}
	}
}

func TestRunSetIndexOfAt(t *testing.T) {
	rs := NewRunSet(NewRun(1, 9, 4), NewRun(20, 22, 1)) // 1 5 9 | 20 21 22
	if rs.Count() != 6 {
		t.Fatalf("count = %d", rs.Count())
	}
	wantOrder := []int{1, 5, 9, 20, 21, 22}
	for k, v := range wantOrder {
		if rs.At(k) != v {
			t.Fatalf("At(%d) = %d want %d", k, rs.At(k), v)
		}
		if rs.IndexOf(v) != k {
			t.Fatalf("IndexOf(%d) = %d want %d", v, rs.IndexOf(v), k)
		}
	}
	if rs.IndexOf(7) != -1 {
		t.Fatal("IndexOf of absent element")
	}
}

func TestRunSetIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a := NewRunSet(
			NewRun(rng.Intn(20), rng.Intn(40), 1+rng.Intn(5)),
			NewRun(50+rng.Intn(20), 50+rng.Intn(40), 1+rng.Intn(5)),
		)
		b := NewRunSet(
			NewRun(rng.Intn(30), rng.Intn(70), 1+rng.Intn(6)),
		)
		got := a.Intersect(b)
		// brute force
		want := map[int]bool{}
		a.ForEach(func(i int) bool {
			if b.Contains(i) {
				want[i] = true
			}
			return true
		})
		if got.Count() != len(want) {
			t.Fatalf("trial %d: a=%v b=%v got %v (count %d) want %d elems", trial, a, b, got, got.Count(), len(want))
		}
		got.ForEach(func(i int) bool {
			if !want[i] {
				t.Fatalf("trial %d: spurious element %d", trial, i)
			}
			return true
		})
	}
}

func TestGridIntersectAndIterate(t *testing.T) {
	g1 := Grid{Dims: []RunSet{
		NewRunSet(NewRun(1, 10, 1)),
		NewRunSet(NewRun(1, 10, 2)), // 1 3 5 7 9
	}}
	g2 := Grid{Dims: []RunSet{
		NewRunSet(NewRun(5, 20, 1)),
		NewRunSet(NewRun(3, 9, 3)), // 3 6 9
	}}
	gi := g1.Intersect(g2)
	// dim0: 5..10 (6), dim1: {3,9} (2)
	if gi.Count() != 12 {
		t.Fatalf("count = %d, want 12", gi.Count())
	}
	if !gi.Contains(Point{5, 3}) || gi.Contains(Point{5, 6}) {
		t.Fatal("containment wrong")
	}
	seen := 0
	gi.ForEach(func(p Point) bool {
		if !g1.Contains(p) || !g2.Contains(p) {
			t.Fatalf("iterated point %v outside operands", p)
		}
		seen++
		return true
	})
	if seen != 12 {
		t.Fatalf("iterated %d points", seen)
	}
}

func TestGridEmpty(t *testing.T) {
	g := Grid{Dims: []RunSet{NewRunSet(NewRun(1, 5, 1)), {}}}
	if !g.Empty() {
		t.Fatal("grid with empty dim should be empty")
	}
	g.ForEach(func(Point) bool { t.Fatal("iterated empty grid"); return false })
}

func TestRunSetEqual(t *testing.T) {
	a := NewRunSet(NewRun(0, 8, 2)) // 0 2 4 6 8
	b := NewRunSet(NewRun(0, 4, 4), NewRun(2, 6, 4), NewRun(8, 8, 1))
	if !a.Equal(b) {
		t.Fatalf("%v should equal %v", a, b)
	}
	c := NewRunSet(NewRun(0, 8, 1))
	if a.Equal(c) {
		t.Fatal("different sets compared equal")
	}
}

// indices materializes a set as a sorted slice, an index once per run
// that holds it.
func indices(rs RunSet) []int {
	var out []int
	rs.ForEach(func(i int) bool { out = append(out, i); return true })
	slices.Sort(out)
	return out
}

// TestRunSetEqualWalk holds Equal to the comparison of materialised
// indices (equal counts, equal sorted Indices) over random sets: strided
// CYCLIC(k) run sets, overlapping runs, empty sets and singletons, each
// against a random set and against its own indices re-cut into other
// runs.  Equal allocates nothing.
func TestRunSetEqualWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cyclic := func() RunSet { // a CYCLIC(k) owner's runs over 1..n on np
		k, np, n := 1+rng.Intn(4), 1+rng.Intn(4), rng.Intn(40)
		c, rs := rng.Intn(np), RunSet{}
		for j := 0; j < k; j++ {
			if lo := 1 + c*k + j; lo <= n {
				rs = append(rs, NewRun(lo, n, k*np))
			}
		}
		return rs
	}
	overlapping := func() RunSet {
		rs := make(RunSet, rng.Intn(4))
		for i := range rs {
			lo := rng.Intn(20)
			rs[i] = NewRun(lo, lo+rng.Intn(20), 1+rng.Intn(3))
		}
		slices.SortFunc(rs, func(a, b Run) int { return a.Lo - b.Lo })
		return rs
	}
	gens := []func() RunSet{
		cyclic, overlapping,
		func() RunSet { return nil },
		func() RunSet { return RunSet{{Lo: 5, Hi: 4, Stride: 1}, {Lo: 1}} },
		func() RunSet { i := rng.Intn(20); return RunSet{NewRun(i, i, 1)} },
	}
	// recut lists a set's indices again as runs of one, two or three
	// points, so the same set arrives in another representation.
	recut := func(rs RunSet) RunSet {
		var out RunSet
		idx := indices(rs)
		for len(idx) > 0 {
			n := min(len(idx), 1+rng.Intn(3))
			if n == 1 || idx[1] == idx[0] || idx[n-1]-idx[0] != (n-1)*(idx[1]-idx[0]) {
				n = 1
			}
			stride := 1
			if n > 1 {
				stride = idx[1] - idx[0]
			}
			out = append(out, NewRun(idx[0], idx[n-1], stride))
			idx = idx[n:]
		}
		return out
	}
	want := func(a, b RunSet) bool { return a.Count() == b.Count() && slices.Equal(indices(a), indices(b)) }
	equal := 0
	for i := 0; i < 20000; i++ {
		a := gens[rng.Intn(len(gens))]()
		b := gens[rng.Intn(len(gens))]()
		if rng.Intn(2) == 0 {
			b = recut(a)
		}
		got := a.Equal(b)
		if got != want(a, b) || got != b.Equal(a) {
			t.Fatalf("%v.Equal(%v) = %v, materialised indices say %v", a, b, got, want(a, b))
		}
		if got {
			equal++
		}
	}
	if equal < 5000 {
		t.Errorf("only %d of 20000 pairs equal: the walk's true case is barely exercised", equal)
	}
	// The same indices and count, held by runs a different number of
	// times: {1, 1, 2} against {1, 2, 2}.
	if one, two := (RunSet{NewRun(1, 1, 1), NewRun(1, 2, 1)}), (RunSet{NewRun(1, 2, 1), NewRun(2, 2, 1)}); one.Equal(two) {
		t.Errorf("%v.Equal(%v): multiplicities ignored", one, two)
	}
	a, b := RunSet{NewRun(1, 40, 3), NewRun(2, 40, 3)}, RunSet{NewRun(1, 1, 1), NewRun(2, 40, 3), NewRun(4, 40, 3)}
	if n := testing.AllocsPerRun(100, func() { a.Equal(b) }); n != 0 {
		t.Errorf("Equal allocates %.1f per call, want 0", n)
	}
}

// collectPoints expands an iteration into copied points.
func collectPoints(iter func(func(Point) bool)) []Point {
	var out []Point
	iter(func(p Point) bool {
		out = append(out, append(Point(nil), p...))
		return true
	})
	return out
}

func TestGridForEachRunMatchesForEach(t *testing.T) {
	grids := []Grid{
		{Dims: []RunSet{NewRunSet(NewRun(3, 9, 1))}},
		{Dims: []RunSet{NewRunSet(NewRun(0, 8, 2), NewRun(11, 15, 1))}},
		{Dims: []RunSet{
			NewRunSet(NewRun(1, 10, 3), NewRun(20, 22, 1)),
			NewRunSet(NewRun(5, 5, 1), NewRun(7, 13, 2)),
		}},
		{Dims: []RunSet{
			NewRunSet(NewRun(0, 3, 1)),
			NewRunSet(NewRun(2, 8, 3)),
			NewRunSet(NewRun(1, 5, 4), NewRun(9, 9, 1)),
		}},
	}
	for gi, g := range grids {
		want := collectPoints(g.ForEach)
		got := collectPoints(func(f func(Point) bool) {
			g.ForEachRun(func(p Point, r Run) bool {
				if p[0] != r.Lo {
					t.Fatalf("grid %d: p[0] = %d, want run lo %d", gi, p[0], r.Lo)
				}
				q := append(Point(nil), p...)
				for i := r.Lo; i <= r.Hi; i += r.Stride {
					q[0] = i
					if !f(q) {
						return false
					}
				}
				return true
			})
		})
		if len(got) != len(want) || len(got) != g.Count() {
			t.Fatalf("grid %d: %d points via runs, %d via ForEach, Count %d", gi, len(got), len(want), g.Count())
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("grid %d: point %d = %v via runs, %v via ForEach", gi, i, got[i], want[i])
			}
		}
	}
}

func TestGridForEachRunEmptyAndEarlyStop(t *testing.T) {
	empty := Grid{Dims: []RunSet{NewRunSet(NewRun(1, 5, 1)), {}}}
	empty.ForEachRun(func(Point, Run) bool { t.Fatal("iterated empty grid"); return false })

	g := Grid{Dims: []RunSet{
		NewRunSet(NewRun(0, 4, 2), NewRun(7, 9, 1)),
		NewRunSet(NewRun(0, 1, 1)),
	}}
	calls := 0
	g.ForEachRun(func(Point, Run) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop made %d calls, want 1", calls)
	}
}
