package dist

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/index"
)

// Target abstracts the processor section a distribution maps onto
// (machine.ProcSection implements it).  Coordinates are dense and 0-based
// per dimension.
type Target interface {
	NDims() int
	Extent(k int) int
	Size() int
	RankOf(coords []int) int
	CoordsOf(rank int) ([]int, bool)
	Ranks() []int
	String() string
}

// Distribution is a Type applied to an index domain and a target — the
// δ_A of Definition 1: an index mapping from I^A to the powerset of I^R.
//
// Array dimensions bind to target dimensions in order: the k-th
// distributed (non-elided) array dimension consumes the k-th *free*
// target dimension.  Target dimensions may also be pinned to a fixed
// coordinate (arising from constant alignment axes, e.g. ALIGN A(I) WITH
// B(I,3)).  Target dimensions that are neither consumed nor pinned
// replicate the array across that dimension — each element then has
// several owners, which Definition 1 explicitly permits.
type Distribution struct {
	typ    Type
	domain index.Domain
	target Target

	// procDim[k] is the target dimension consumed by array dimension k,
	// or -1 for elided dimensions.
	procDim []int
	// fixed[td] pins target dimension td to a coordinate, or -1.
	fixed []int
	// replDims lists target dimensions that replicate.
	replDims []int
	ranks    []int // the rank at each target coordinate, column-major

	fpOnce sync.Once
	fp     string // memoized Fingerprint (distributions are immutable)

	lgOnce sync.Once
	lgTab  []index.Grid // memoized LocalGrid per target rank
}

// New applies a distribution type to a domain and target, binding the
// k-th distributed (non-elided) array dimension to the k-th target
// dimension.  The number of distributed dimensions must not exceed the
// number of target dimensions; irregular specifiers are validated against
// extents.  The distribution keeps its own copy of typ, so a caller may
// pass specifiers in storage it reuses.
func New(typ Type, dom index.Domain, target Target) (*Distribution, error) {
	t := typ.clone()
	if t.Rank() != dom.Rank() {
		return nil, fmt.Errorf("dist: type rank %d != domain rank %d", t.Rank(), dom.Rank())
	}
	var buf [8]int
	procDim := buf[:0]
	td := 0
	for _, spec := range t.Dims {
		if !spec.Distributed() {
			procDim = append(procDim, -1)
			continue
		}
		if td >= target.NDims() {
			return nil, fmt.Errorf("dist: type %v has more distributed dimensions than target %v has dimensions", t, target)
		}
		procDim = append(procDim, td)
		td++
	}
	return newBound(t, dom, target, procDim, nil)
}

// Is reports whether d is the mapping New(NewType(specs...), dom, target)
// builds: the same target object, domain and specifiers, the k-th
// distributed dimension bound to the k-th target dimension, and no
// pinned coordinate.  It compares field by field and allocates nothing,
// so a DISTRIBUTE resolves its expression to a distribution the rank
// already holds before it builds one.
func (d *Distribution) Is(specs []DimSpec, dom index.Domain, target Target) bool {
	if d == nil || d.target != target || len(specs) != len(d.typ.Dims) || !d.domain.Equal(dom) {
		return false
	}
	td := 0
	for k, s := range specs {
		want := -1
		if s.Distributed() {
			want, td = td, td+1
		}
		if d.procDim[k] != want || !s.Equal(d.typ.Dims[k]) {
			return false
		}
	}
	for _, c := range d.fixed {
		if c >= 0 {
			return false
		}
	}
	return true
}

// Standard reports whether d is New's mapping onto a target that numbers
// its ranks 0, 1, … column-major: then its type, domain and the target's
// extents fix every rank's ownership, whatever the target object.
func (d *Distribution) Standard() bool {
	for i, r := range d.ranks {
		if r != i {
			return false
		}
	}
	return d.Is(d.typ.Dims, d.domain, d.target)
}

// newBound builds a distribution with an explicit binding of array
// dimensions to target dimensions (procDim[k] = target dim or -1) and
// optionally pinned target coordinates (fixedIn[td] >= 0).  Alignment
// derivation uses this to express transposed and sliced mappings.
func newBound(typ Type, dom index.Domain, target Target, procDim, fixedIn []int) (*Distribution, error) {
	if typ.Rank() != dom.Rank() {
		return nil, fmt.Errorf("dist: type rank %d != domain rank %d", typ.Rank(), dom.Rank())
	}
	if len(procDim) != typ.Rank() {
		return nil, fmt.Errorf("dist: binding rank %d != type rank %d", len(procDim), typ.Rank())
	}
	// One allocation holds the binding, the pins, the rank table and the
	// coordinates that fill it.
	r, nt, size := typ.Rank(), target.NDims(), target.Size()
	ints := make([]int, r+2*nt+size)
	d := &Distribution{
		typ:     typ,
		domain:  dom,
		target:  target,
		procDim: ints[:r:r],
		fixed:   ints[r : r+nt : r+nt],
		ranks:   ints[r+nt : r+nt+size : r+nt+size],
	}
	coords := ints[r+nt+size:]
	for i := range d.ranks {
		d.ranks[i] = target.RankOf(coords)
		for td := range coords { // the next coordinates, column-major
			if coords[td]++; coords[td] < target.Extent(td) {
				break
			}
			coords[td] = 0
		}
	}
	copy(d.procDim, procDim)
	for td := range d.fixed {
		d.fixed[td] = -1
		if fixedIn != nil && fixedIn[td] >= 0 {
			if fixedIn[td] >= target.Extent(td) {
				return nil, fmt.Errorf("dist: fixed coordinate %d out of range for target dim %d (extent %d)", fixedIn[td], td, target.Extent(td))
			}
			d.fixed[td] = fixedIn[td]
		}
	}
	for k, spec := range typ.Dims {
		td := d.procDim[k]
		if !spec.Distributed() {
			if td != -1 {
				return nil, fmt.Errorf("dist: elided dimension %d bound to target dim %d", k+1, td)
			}
			continue
		}
		if td < 0 || td >= nt {
			return nil, fmt.Errorf("dist: dimension %d bound to invalid target dim %d", k+1, td)
		}
		if slices.Contains(d.procDim[:k], td) {
			return nil, fmt.Errorf("dist: target dim %d bound twice", td)
		}
		if d.fixed[td] >= 0 {
			return nil, fmt.Errorf("dist: target dim %d both bound and pinned", td)
		}
		if err := spec.validate(dom.Lo[k], dom.Extent(k), target.Extent(td)); err != nil {
			return nil, fmt.Errorf("dist: dimension %d: %w", k+1, err)
		}
	}
	for td := 0; td < nt; td++ {
		if !slices.Contains(d.procDim, td) && d.fixed[td] < 0 {
			d.replDims = append(d.replDims, td)
		}
	}
	return d, nil
}

// MustNew is New that panics on error (for tests and literals).
func MustNew(typ Type, dom index.Domain, target Target) *Distribution {
	d, err := New(typ, dom, target)
	if err != nil {
		panic(err)
	}
	return d
}

// DistType returns the distribution type (used by IDT and DCASE).
func (d *Distribution) DistType() Type { return d.typ }

// Domain returns the array index domain the distribution applies to.
func (d *Distribution) Domain() index.Domain { return d.domain }

// Target returns the processor section.
func (d *Distribution) Target() Target { return d.target }

// Replicated reports whether elements have more than one owner.
func (d *Distribution) Replicated() bool { return len(d.replDims) > 0 }

// ReplicationDegree returns the number of owners per element.
func (d *Distribution) ReplicationDegree() int {
	n := 1
	for _, td := range d.replDims {
		n *= d.target.Extent(td)
	}
	return n
}

// ProcDim returns the target dimension consumed by array dimension k, or
// -1 if dimension k is elided.
func (d *Distribution) ProcDim(k int) int { return d.procDim[k] }

// OwnerCoord returns the target coordinate along ProcDim(k) owning global
// index i of dimension k.  Panics for elided dimensions.
func (d *Distribution) OwnerCoord(k, i int) int {
	td := d.procDim[k]
	if td < 0 {
		panic("dist: OwnerCoord on elided dimension")
	}
	return d.typ.Dims[k].owner(i, d.domain.Lo[k], d.domain.Extent(k), d.target.Extent(td))
}

// Owner returns the primary owner rank of point p (replicated dimensions
// at coordinate 0).  It allocates nothing.
func (d *Distribution) Owner(p index.Point) int { return d.ranks[d.ownerAt(p)] }

// ownerAt is p's primary owner's index in d.ranks.
func (d *Distribution) ownerAt(p index.Point) int {
	at, mul := 0, 1
	for td, c := range d.fixed {
		if c < 0 {
			c = 0
			if k := slices.Index(d.procDim, td); k >= 0 {
				c = d.OwnerCoord(k, p[k])
			}
		}
		at += c * mul
		mul *= d.target.Extent(td)
	}
	return at
}

// Owners returns all owner ranks of point p (more than one only under
// replication, else shared and not to be modified).
func (d *Distribution) Owners(p index.Point) []int {
	at := d.ownerAt(p)
	if len(d.replDims) == 0 {
		return d.ranks[at : at+1 : at+1]
	}
	var out []int
	for _, r := range d.ranks {
		if d.IsLocal(r, p) {
			out = append(out, r)
		}
	}
	return out
}

// IsLocal reports whether rank owns point p.
func (d *Distribution) IsLocal(rank int, p index.Point) bool {
	coords, ok := d.Coords(rank)
	if !ok {
		return false
	}
	for k, td := range d.procDim {
		if td >= 0 && d.OwnerCoord(k, p[k]) != coords[td] {
			return false
		}
	}
	return true
}

// IsPrimaryRank reports whether rank is a *primary* owner: the replica
// whose coordinates along all replicated target dimensions are zero.
// Under replication each element has several owners; communication
// schedules let only the primary copy send, avoiding duplicate transfers.
func (d *Distribution) IsPrimaryRank(rank int) bool {
	coords, ok := d.Coords(rank)
	if !ok {
		return false
	}
	for _, td := range d.replDims {
		if coords[td] != 0 {
			return false
		}
	}
	return true
}

// Coords returns rank's target coordinates (shared: read-only) if rank
// lies in the target and on every pinned coordinate.
func (d *Distribution) Coords(rank int) ([]int, bool) {
	coords, ok := d.target.CoordsOf(rank)
	if !ok {
		return nil, false
	}
	for td, c := range coords {
		if d.fixed[td] >= 0 && d.fixed[td] != c {
			return nil, false
		}
	}
	return coords, true
}

// Pinned returns the coordinate target dimension td is pinned to, or -1.
func (d *Distribution) Pinned(td int) int { return d.fixed[td] }

// LocalGrid returns the set of global indices rank owns, as a Grid of
// per-dimension RunSets.  Ranks outside the target (or off a pinned
// coordinate) own nothing.  The grids are computed once per rank, into
// one backing array, and shared — callers must treat the result as
// read-only.
func (d *Distribution) LocalGrid(rank int) index.Grid {
	if rank < 0 || rank >= d.target.Size() {
		g, _ := d.LocalGridInto(index.Grid{}, nil, rank)
		return g
	}
	d.lgOnce.Do(func() {
		r := d.domain.Rank()
		tab := make([]index.Grid, d.target.Size())
		dims := make([]index.RunSet, len(tab)*r)
		runs := make([]index.Run, 0, len(tab)*r) // a run per dimension, more under CYCLIC(k)
		for i := range tab {
			tab[i], runs = d.LocalGridInto(index.Grid{Dims: dims[i*r : i*r : (i+1)*r]}, runs, i)
		}
		d.lgTab = tab
	})
	return d.lgTab[rank]
}

// LocalGridInto is LocalGrid built in the caller's storage: g.Dims is
// refilled and rank's runs are appended to runs, and both are returned,
// with nothing allocated once they have room.
func (d *Distribution) LocalGridInto(g index.Grid, runs []index.Run, rank int) (index.Grid, []index.Run) {
	g.Dims = g.Dims[:0]
	coords, ok := d.Coords(rank)
	for k, td := range d.procDim {
		at := len(runs)
		if ok { // an elided dimension (td < 0) ignores the coordinate
			runs = d.AppendDimRuns(runs, k, coords[max(td, 0)])
		}
		g.Dims = append(g.Dims, runs[at:len(runs):len(runs)])
	}
	return g, runs
}

// AppendDimRuns appends to runs the indices of array dimension k that
// target coordinate c along ProcDim(k) owns, in increasing order.  For
// an elided dimension c is ignored and the whole extent is appended.
func (d *Distribution) AppendDimRuns(runs []index.Run, k, c int) []index.Run {
	np := 1
	if td := d.procDim[k]; td >= 0 {
		np = d.target.Extent(td)
	}
	return d.typ.Dims[k].appendRuns(runs, c, d.domain.Lo[k], d.domain.Extent(k), np)
}

// MaxRuns bounds the runs any rank owns along array dimension k: one
// under ':' and the block family, at most K under CYCLIC(K).
func (d *Distribution) MaxRuns(k int) int {
	if s := d.typ.Dims[k]; s.Kind == Cyclic {
		return min(normK(s.K), d.domain.Extent(k))
	}
	return 1
}

// OwnerSpan returns the first and last target coordinates along
// ProcDim(k) that can own an index of [lo, hi] in dimension k: under
// CYCLIC all of them; else the owners of lo and hi, as owners ascend.
func (d *Distribution) OwnerSpan(k, lo, hi int) (c0, c1 int) {
	if d.typ.Dims[k].Kind == Cyclic {
		return 0, d.target.Extent(d.procDim[k]) - 1
	}
	return d.OwnerCoord(k, lo), d.OwnerCoord(k, hi)
}

// LocalCount returns how many elements rank owns, allocating nothing.
func (d *Distribution) LocalCount(rank int) int {
	coords, ok := d.Coords(rank)
	if !ok {
		return 0
	}
	n := min(len(d.procDim), 1)
	for k, td := range d.procDim { // an elided dimension ignores the coordinate
		var runs [16]index.Run
		n *= index.RunSet(d.AppendDimRuns(runs[:0], k, coords[max(td, 0)])).Count()
	}
	return n
}

// Segment returns rank's contiguous segment (inclusive per-dimension
// bounds) when every distributed dimension is block-family; ok is false
// when a CYCLIC dimension makes the local set non-contiguous or the rank
// owns nothing.  This is the `segment` descriptor component of §3.2.1.
func (d *Distribution) Segment(rank int) (index.Section, bool) {
	for _, spec := range d.typ.Dims {
		if spec.Kind == Cyclic {
			return index.Section{}, false
		}
	}
	g := d.LocalGrid(rank)
	sec := index.Section{Lo: make([]int, g.Rank()), Hi: make([]int, g.Rank()), Stride: make([]int, g.Rank())}
	for k, rs := range g.Dims {
		if rs.Count() == 0 {
			return index.Section{}, false
		}
		sec.Lo[k] = rs[0].Lo
		sec.Hi[k] = rs[len(rs)-1].Hi
		sec.Stride[k] = 1
	}
	return sec, true
}

// Equal reports whether two distributions are identical mappings (same
// type, domain, target identity and binding).  Used by the DISTRIBUTE
// implementation to elide no-op redistributions.
func (d *Distribution) Equal(o *Distribution) bool {
	if d == nil || o == nil {
		return d == o
	}
	if !d.typ.Equal(o.typ) || !d.domain.Equal(o.domain) {
		return false
	}
	// Targets are usually shared pointers; fall back to the printed form
	// (name + section), which identifies the processor set and shape.
	if d.target != o.target && d.target.String() != o.target.String() {
		return false
	}
	if !slices.Equal(d.procDim, o.procDim) || !slices.Equal(d.fixed, o.fixed) {
		return false
	}
	return true
}

func (d *Distribution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v TO %v", d.typ, d.target)
	return b.String()
}

// Fingerprint returns a string identifying the mapping completely (type,
// domain, target, dimension bindings, pinned coordinates).  Two
// distributions with equal fingerprints map every element identically;
// each rank's move table (darray) keys on it, so the string is built
// once and memoized (distributions are immutable after construction) and
// the numeric parts are appended directly rather than formatted.
func (d *Distribution) Fingerprint() string {
	d.fpOnce.Do(func() {
		b := make([]byte, 0, 96)
		for _, spec := range d.typ.Dims {
			b = append(b, 'k')
			b = strconv.AppendInt(b, int64(spec.Kind), 10)
			if spec.Kind == Cyclic {
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(normK(spec.K)), 10)
				b = append(b, '@')
				b = strconv.AppendInt(b, int64(spec.Phase), 10)
			}
			for _, v := range spec.Sizes {
				b = append(b, 's')
				b = strconv.AppendInt(b, int64(v), 10)
			}
			for _, v := range spec.Bounds {
				b = append(b, 'b')
				b = strconv.AppendInt(b, int64(v), 10)
			}
		}
		b = append(b, '|')
		for k := 0; k < d.domain.Rank(); k++ {
			b = strconv.AppendInt(b, int64(d.domain.Lo[k]), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(d.domain.Hi[k]), 10)
			b = append(b, ',')
		}
		b = append(b, '|')
		b = append(b, d.target.String()...)
		for _, v := range d.procDim {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, '#')
		for _, v := range d.fixed {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(v), 10)
		}
		d.fp = string(b)
	})
	return d.fp
}
