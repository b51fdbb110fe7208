package index

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Run is a one-dimensional arithmetic progression of global indices:
// {Lo, Lo+Stride, ..., Hi} with Hi reachable from Lo (the constructor and
// all algebra functions maintain this invariant).  Stride is always >= 1.
//
// Runs are the unit of the ownership algebra: the set of indices a
// processor owns along one distributed dimension is a union of Runs
// (a RunSet).  BLOCK, S_BLOCK and B_BLOCK yield a single stride-1 Run;
// CYCLIC(k) yields k Runs of stride k*np (or equivalently one RunSet with
// k strided runs).
type Run struct {
	Lo, Hi, Stride int
}

// NewRun builds a canonical Run from lo, hi, stride; hi is clipped down to
// the last element actually on the progression.
func NewRun(lo, hi, stride int) Run {
	if stride < 1 {
		panic(fmt.Sprintf("index: invalid run stride %d", stride))
	}
	return Run{Lo: lo, Hi: lastOn(lo, hi, stride), Stride: stride}
}

// Count returns the number of elements of the run.
func (r Run) Count() int {
	if r.Hi < r.Lo {
		return 0
	}
	return (r.Hi-r.Lo)/r.Stride + 1
}

// Empty reports whether the run selects no indices.
func (r Run) Empty() bool { return r.Hi < r.Lo }

// Contains reports whether i is on the progression.
func (r Run) Contains(i int) bool {
	return i >= r.Lo && i <= r.Hi && (i-r.Lo)%r.Stride == 0
}

// At returns the k-th element (0-based) of the run.
func (r Run) At(k int) int { return r.Lo + k*r.Stride }

// IndexOf returns the position of i in the run, or -1 if absent.
func (r Run) IndexOf(i int) int {
	if !r.Contains(i) {
		return -1
	}
	return (i - r.Lo) / r.Stride
}

func (r Run) String() string {
	if r.Empty() {
		return "{}"
	}
	if r.Stride == 1 {
		return fmt.Sprintf("%d:%d", r.Lo, r.Hi)
	}
	return fmt.Sprintf("%d:%d:%d", r.Lo, r.Hi, r.Stride)
}

// egcd returns (g, x, y) with a*x + b*y = g = gcd(a,b).
func egcd(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// IntersectRuns computes the intersection of two runs, which is again a
// single (possibly empty) run with stride lcm(a.Stride, b.Stride).  The
// first common element is found with the extended Euclidean algorithm
// (Chinese remainder theorem on the two progressions).
func IntersectRuns(a, b Run) Run {
	if a.Empty() || b.Empty() || a.Hi < b.Lo || b.Hi < a.Lo {
		return Run{Lo: 0, Hi: -1, Stride: 1}
	}
	g, p, _ := egcd(a.Stride, b.Stride)
	diff := b.Lo - a.Lo
	if diff%g != 0 {
		return Run{Lo: 0, Hi: -1, Stride: 1} // progressions never meet
	}
	lcm := a.Stride / g * b.Stride
	// x = a.Lo + a.Stride * p * (diff/g) is a common point of the two
	// infinite progressions; reduce it modulo lcm into the valid window.
	x := a.Lo + a.Stride*mulmod(p, diff/g, lcm/a.Stride)
	lo := a.Lo
	if b.Lo > lo {
		lo = b.Lo
	}
	hi := a.Hi
	if b.Hi < hi {
		hi = b.Hi
	}
	// shift x to the smallest common element >= lo
	if x < lo {
		x += ((lo-x)+lcm-1)/lcm*lcm - 0
	} else {
		x -= (x - lo) / lcm * lcm
	}
	if x > hi {
		return Run{Lo: 0, Hi: -1, Stride: 1}
	}
	return Run{Lo: x, Hi: lastOn(x, hi, lcm), Stride: lcm}
}

// mulmod returns (a*b) mod m with the result in [0, m).
func mulmod(a, b, m int) int {
	if m == 1 {
		return 0
	}
	r := (a % m) * (b % m) % m
	if r < 0 {
		r += m
	}
	return r
}

// RunSet is a union of disjoint runs sorted by Lo.  The zero value is the
// empty set.
type RunSet []Run

// NewRunSet normalizes a collection of runs into a canonical RunSet:
// empties dropped, sorted by first element.  Runs are assumed disjoint
// (all producers in this codebase generate disjoint runs).
func NewRunSet(runs ...Run) RunSet {
	rs := make(RunSet, 0, len(runs))
	for _, r := range runs {
		if !r.Empty() {
			rs = append(rs, r)
		}
	}
	slices.SortFunc(rs, func(a, b Run) int { return a.Lo - b.Lo })
	return rs
}

// Count returns the total number of indices in the set.
func (rs RunSet) Count() int {
	n := 0
	for _, r := range rs {
		n += r.Count()
	}
	return n
}

// Contains reports whether i belongs to the set.
func (rs RunSet) Contains(i int) bool {
	for _, r := range rs {
		if r.Contains(i) {
			return true
		}
	}
	return false
}

// IndexOf returns the 0-based position of i in the set's increasing
// enumeration, or -1 if absent.  Positions are the basis of local index
// computation (loc_map in paper §3.2.1).
//
// Note: positions are well-defined even when runs interleave, but all
// distribution-generated RunSets have non-interleaving runs, for which
// this is a simple prefix-sum walk.
func (rs RunSet) IndexOf(i int) int {
	pos := 0
	for _, r := range rs {
		if k := r.IndexOf(i); k >= 0 {
			return pos + k
		}
		pos += r.Count()
	}
	return -1
}

// At returns the k-th (0-based) index of the set in enumeration order.
func (rs RunSet) At(k int) int {
	for _, r := range rs {
		c := r.Count()
		if k < c {
			return r.At(k)
		}
		k -= c
	}
	panic("index: RunSet.At out of range")
}

// ForEach calls f for every index in enumeration order.
func (rs RunSet) ForEach(f func(int) bool) {
	for _, r := range rs {
		for i := r.Lo; i <= r.Hi; i += r.Stride {
			if !f(i) {
				return
			}
		}
	}
}

// Intersect returns the intersection of two RunSets.
func (rs RunSet) Intersect(other RunSet) RunSet {
	if len(rs) == 0 || len(other) == 0 {
		return nil
	}
	return AppendIntersect(make(RunSet, 0, len(rs)*len(other)), rs, other)
}

// AppendIntersect appends a ∩ b to dst, sorted by Lo, and returns the
// extended slice: one run per pair of runs that meet.
func AppendIntersect(dst []Run, a, b RunSet) []Run {
	at := len(dst)
	for _, x := range a {
		for _, y := range b {
			if c := IntersectRuns(x, y); !c.Empty() {
				dst = append(dst, c)
			}
		}
	}
	slices.SortFunc(dst[at:], func(x, y Run) int { return x.Lo - y.Lo })
	return dst
}

// Equal reports whether two RunSets denote the same index set, an index
// counted once per run that holds it.  It walks both sets' indices in
// increasing order and allocates nothing.
func (rs RunSet) Equal(other RunSet) bool {
	if rs.Count() != other.Count() {
		return false
	}
	for v := math.MinInt; ; {
		next, n := rs.after(v)
		if onext, on := other.after(v); next != onext || n != on || n == 0 {
			return next == onext && n == on
		}
		v = next
	}
}

// after returns the least index of rs above v and the number of runs
// that hold it; n is 0 when no index lies above v.
func (rs RunSet) after(v int) (next, n int) {
	for _, r := range rs {
		i := r.Lo
		if v >= r.Lo && v < r.Hi {
			i += ((v-r.Lo)/r.Stride + 1) * r.Stride
		}
		if i <= v || i > r.Hi || (n > 0 && i > next) {
			continue
		}
		if n == 0 || i < next {
			next, n = i, 0
		}
		n++
	}
	return next, n
}

func (rs RunSet) String() string {
	if len(rs) == 0 {
		return "{}"
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Grid is a cartesian product of per-dimension RunSets, denoting the set of
// points whose k-th coordinate lies in Dims[k].  Ownership sets of Vienna
// Fortran distributions are Grids, and so are redistribution transfer sets
// (intersection of two Grids is the per-dimension intersection).
type Grid struct {
	Dims []RunSet
}

// Rank returns the grid's number of dimensions.
func (g Grid) Rank() int { return len(g.Dims) }

// Count returns the number of points in the grid.
func (g Grid) Count() int {
	if g.Rank() == 0 {
		return 0
	}
	n := 1
	for _, d := range g.Dims {
		n *= d.Count()
	}
	return n
}

// Empty reports whether the grid contains no points.
func (g Grid) Empty() bool { return g.Count() == 0 }

// Contains reports whether p lies in the grid.
func (g Grid) Contains(p Point) bool {
	if len(p) != g.Rank() {
		return false
	}
	for k, v := range p {
		if !g.Dims[k].Contains(v) {
			return false
		}
	}
	return true
}

// Intersect returns the per-dimension intersection of two grids.
func (g Grid) Intersect(other Grid) Grid {
	if g.Rank() != other.Rank() {
		panic("index: grid rank mismatch")
	}
	out := Grid{Dims: make([]RunSet, g.Rank())}
	for k := range g.Dims {
		out.Dims[k] = g.Dims[k].Intersect(other.Dims[k])
	}
	return out
}

// ForEach calls f for every point of the grid in column-major enumeration
// order (dimension 0 fastest).  The Point passed to f is reused between
// calls; clone it if it must be retained.
func (g Grid) ForEach(f func(Point) bool) {
	if g.Empty() {
		return
	}
	idx := make([]int, g.Rank()) // per-dim enumeration positions
	p := make(Point, g.Rank())
	for k := range p {
		p[k] = g.Dims[k].At(0)
	}
	for {
		if !f(p) {
			return
		}
		k := 0
		for k < g.Rank() {
			idx[k]++
			if idx[k] < g.Dims[k].Count() {
				p[k] = g.Dims[k].At(idx[k])
				break
			}
			idx[k] = 0
			p[k] = g.Dims[k].At(0)
			k++
		}
		if k == g.Rank() {
			return
		}
	}
}

// ForEachRun calls f for every innermost span of the grid: r is one run
// of dimension 0 and p is a point whose remaining coordinates select the
// outer position (p[0] is set to r.Lo for convenience).  Visiting every
// run's elements in order reproduces exactly the ForEach enumeration,
// with the outer coordinates computed once per span rather than per
// point.  The Point passed to f is reused between calls; clone it if it
// must be retained.
func (g Grid) ForEachRun(f func(p Point, r Run) bool) {
	if g.Empty() {
		return
	}
	rank := g.Rank()
	scratch := make([]int, 2*rank) // one allocation: point + positions
	p := Point(scratch[:rank])
	idx := scratch[rank:] // enumeration positions of dims >= 1
	for k := 1; k < rank; k++ {
		p[k] = g.Dims[k].At(0)
	}
	for {
		for _, r := range g.Dims[0] {
			p[0] = r.Lo
			if !f(p, r) {
				return
			}
		}
		k := 1
		for k < rank {
			idx[k]++
			if idx[k] < g.Dims[k].Count() {
				p[k] = g.Dims[k].At(idx[k])
				break
			}
			idx[k] = 0
			p[k] = g.Dims[k].At(0)
			k++
		}
		if k == rank {
			return
		}
	}
}

func (g Grid) String() string {
	parts := make([]string, g.Rank())
	for k, d := range g.Dims {
		parts[k] = d.String()
	}
	return "⨯[" + strings.Join(parts, ", ") + "]"
}
