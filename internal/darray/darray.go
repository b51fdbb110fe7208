// Package darray is the distributed-array runtime of the Vienna Fortran
// Engine — the run-time representation of arrays described in paper
// §3.2.1.  Every array carries the descriptor components the paper lists:
//
//	index_dom(A)   — Array.Domain
//	dist(A)        — Array.Dist (a *dist.Distribution)
//	loc_map        — Local.Offset / Local.li (global → local storage)
//	segment        — Local.Segment (per-dimension local bounds for
//	                 regular and irregular BLOCK distributions)
//
// (connect_class(A) and alignment(C) live one level up, in
// internal/core, which manages the equivalence classes of §2.3.)
//
// Access functions follow §3.2.1: local elements are read through
// loc_map; non-local elements are fetched from the owner determined by
// dist(A).  In this in-process engine the one-sided fetch reads the
// owner's memory directly and *accounts* for the two messages a real
// engine would exchange (request + reply) in the transport's statistics
// and cost model.  All bulk communication — ghost-area exchange,
// redistribution, gather/scatter — moves real messages and therefore
// works unchanged over the TCP transport.
//
// Every processor owns its descriptor: it holds its own dist(A) and
// epoch and replaces them when its part of a DISTRIBUTE commits, as
// §3.2.2 has each processor evaluate the new distribution for itself.
// Nothing is published and no DISTRIBUTE waits in a barrier; a processor
// reaches a peer's storage only where a message orders the access (see
// RedistributeTo); a ghost exchange touches only the caller's own.
//
// Mutation discipline: the engine assumes the SPMD owner-computes model —
// between two synchronization points, an element is either written only
// by its owner or read by anyone, never both.  This is exactly the
// guarantee compiled Vienna Fortran code provides.  The non-local Get and
// Set read a peer's storage directly, so their callers order them with
// barriers (the interpreter does, per statement).
package darray

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// Array is a distributed array of float64 (Fortran REAL*8) elements.
// The handle is shared by all processors; per-processor state lives in
// locals[rank] and own[rank], which only that processor writes.
type Array struct {
	name   string
	dom    index.Domain
	m      *machine.Machine
	ghost  []int // symmetric ghost width per dimension
	locals []*Local
	own    []rankState // indexed like locals

	// hits and misses count lookups in the ranks' move tables, summed
	// over ranks (ScheduleCacheStats).
	hits, misses atomic.Int64

	// win is the one-sided window over the locals' storage.  Each rank
	// registers its storage whenever its Local is replaced.
	win *msg.Window

	// span is every move's trace span name, "DISTRIBUTE <name>", and
	// ghostStartSpan / ghostWaitSpan those of a ghost exchange's two
	// halves, all built once (spans) by the first move or exchange: an
	// array that does neither builds no name, and no call concatenates one
	// again.
	spanOnce                      sync.Once
	span                          string
	ghostStartSpan, ghostWaitSpan string
}

// spans builds the array's trace span names once.
func (a *Array) spans() {
	a.spanOnce.Do(func() {
		a.span = "DISTRIBUTE " + a.name
		a.ghostStartSpan = "ghost-start " + a.name
		a.ghostWaitSpan = "ghost-wait " + a.name
	})
}

// rankState is what one processor keeps of an array for itself.  Like
// locals, each rank touches only its own entry, so no locking is needed.
type rankState struct {
	// dst is dist(A) as this rank holds it; it is atomic only so that
	// Dist(0) may be read from another rank without a data race.
	dst  atomic.Pointer[dist.Distribution]
	epoc int // redistributions this rank has committed (diagnostics)
	// left is the distribution the rank's last move left (Held).
	left *dist.Distribution
	// ghosts is the ghost exchange under dst, rebuilt by the first
	// exchange after a commit (ghostPlanOf).
	ghosts ghostPlan
	// retired parks the storage a DISTRIBUTE replaced, keyed by
	// distribution fingerprint; phase-alternating programs bounce between
	// a few mappings, so the next DISTRIBUTE back reuses the allocation
	// instead of growing the heap every transition.
	retired map[string]*Local
	// moves is the rank's move table (moveOf): everything a DISTRIBUTE
	// between two mappings needs, kept for the next one between them;
	// clock stamps its lookups.  peer is planTransfers' peer layout.
	moves map[moveKey]*move
	clock uint64
	peer  layout
	// stream is the rank's pack buffer (GatherTo).  It may be handed to
	// Endpoint.Send and reused as soon as Send returns.
	stream []byte
	// rects and dims back the rank's recycled rect list (rectsOf), in
	// inl and inlDims while one rect of up to four dimensions fits; dense
	// is the layout of the array's dense image over its domain, built by
	// the rank's first PlacePart.
	rects   []msg.Rect
	dims    []msg.RectDim
	inl     [1]msg.Rect
	inlDims [4]msg.RectDim
	dense   layout
	// shares is the rank's recycled list of one DISTRIBUTE offer or pull
	// (sharesOf); members is its recycled list of one class move
	// (RedistributeClass) led by this array.
	shares  []msg.Share
	members []member
}

// Option configures array creation.
type Option func(*arrOpts)

type arrOpts struct {
	ghost []int
}

// WithGhost declares symmetric overlap (ghost) areas of the given width
// per dimension, used by stencil codes; ghost cells are refreshed with
// ExchangeAllGhosts.  Ghosts require block-family distribution (or
// elision) in that dimension.
func WithGhost(widths ...int) Option {
	return func(o *arrOpts) { o.ghost = widths }
}

// New collectively creates a distributed array.  Every processor must
// call it with equivalent arguments (SPMD discipline); the returned
// handle is shared.  The array's elements are zero-initialized.  A nil d
// creates a DYNAMIC array with no initial distribution (paper §2.3: it
// "cannot be legally accessed before it has been explicitly associated
// with a distribution"); accessors panic until the first RedistributeTo.
func New(ctx *machine.Ctx, name string, dom index.Domain, d *dist.Distribution, opts ...Option) *Array {
	var o arrOpts
	for _, op := range opts {
		op(&o)
	}
	// Validate outside the collective constructor so every rank fails
	// identically (a panic inside CollectiveOnce would leave the other
	// ranks with a nil object).
	g := o.ghost
	if g == nil {
		g = make([]int, dom.Rank())
	}
	if len(g) != dom.Rank() {
		panic(fmt.Sprintf("darray: %s: %d ghost widths for rank-%d array", name, len(g), dom.Rank()))
	}
	a := ctx.CollectiveOnce(func() any {
		np := ctx.NP()
		a := &Array{
			name:   name,
			dom:    dom,
			m:      ctx.Machine(),
			ghost:  g,
			locals: make([]*Local, np),
			own:    make([]rankState, np),
			win:    msg.NewWindow(np, name, ctx.Machine().Stats(), ctx.Machine().Cost()),
		}
		// Under SPMD discipline every rank passes an equivalent (often
		// distinct) descriptor object; every rank starts from this one so
		// its memoized per-rank tables (local grids, coordinates,
		// fingerprint) are built once instead of once per rank.
		for r := range a.own {
			a.own[r].dst.Store(d)
			a.own[r].rects, a.own[r].dims = a.own[r].inl[:0], a.own[r].inlDims[:0]
		}
		return a
	}).(*Array)
	if d := a.Dist(ctx.Rank()); d != nil {
		l := a.takeLocal(ctx.Rank(), d, false)
		a.locals[ctx.Rank()] = l
		a.win.Register(ctx.Rank(), l.data)
	}
	ctx.Barrier()
	return a
}

// Name returns the array's declaration name.
func (a *Array) Name() string { return a.name }

// Domain returns the array's index domain.
func (a *Array) Domain() index.Domain { return a.dom }

// Dist returns the distribution rank holds (nil before the first
// association).  Each rank installs its own when its part of a
// DISTRIBUTE commits, so another rank's answer is only current once a
// message or collective orders that rank's last DISTRIBUTE before the
// call.
func (a *Array) Dist(rank int) *dist.Distribution { return a.own[rank].dst.Load() }

// Held returns the distributions processor rank holds for the array: the
// current one and the one its last move left (nil before a move).  A
// DISTRIBUTE back to either moves from or to mapping objects whose
// fingerprints and local grids are built already.
func (a *Array) Held(rank int) [2]*dist.Distribution {
	own := &a.own[rank]
	return [2]*dist.Distribution{own.dst.Load(), own.left}
}

// DistType returns rank's current distribution type, panicking if the
// array has not been associated with a distribution yet.
func (a *Array) DistType(rank int) dist.Type { return a.requireDist(rank).DistType() }

// Distributed reports whether rank holds a distribution for the array.
func (a *Array) Distributed(rank int) bool { return a.Dist(rank) != nil }

// Epoch returns the number of redistributions rank has committed.
func (a *Array) Epoch(rank int) int { return a.own[rank].epoc }

// Local returns this processor's local part.
func (a *Array) Local(ctx *machine.Ctx) *Local {
	l := a.locals[ctx.Rank()]
	if l == nil {
		panic(fmt.Sprintf("darray: %s accessed before association with a distribution", a.name))
	}
	return l
}

func (a *Array) requireDist(rank int) *dist.Distribution {
	d := a.Dist(rank)
	if d == nil {
		panic(fmt.Sprintf("darray: %s accessed before association with a distribution", a.name))
	}
	return d
}

// Get reads a global element.  Local reads go through loc_map; remote
// reads are one-sided fetches from the owner with message accounting
// (16-byte request, 8-byte reply).
func (a *Array) Get(ctx *machine.Ctx, p index.Point) float64 {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	if d.IsLocal(rank, p) {
		return a.locals[rank].At(p)
	}
	owner := d.Owner(p)
	a.accountRMA(ctx, owner)
	return a.locals[owner].At(p)
}

// Set writes a global element on whichever processor calls it; remote
// writes are one-sided puts into the owner's memory (owner-computes
// programs never need them, but explicit reassignment phases — e.g. PIC
// particle motion — do).  Under replication every replica is updated.
func (a *Array) Set(ctx *machine.Ctx, p index.Point, v float64) {
	rank := ctx.Rank()
	d := a.requireDist(rank)
	if d.IsLocal(rank, p) && !d.Replicated() {
		a.locals[rank].SetAt(p, v)
		return
	}
	for _, owner := range d.Owners(p) {
		if owner == rank {
			a.locals[rank].SetAt(p, v)
			continue
		}
		a.accountRMA(ctx, owner)
		a.locals[owner].SetAt(p, v)
	}
}

// accountRMA records the traffic and modeled cost of one simulated
// one-sided element access (request + reply).  owner is a view rank;
// stats, trace, and cost slots are physical-rank indexed, so both ends
// are translated before charging — otherwise a post-regroup access
// would land in another (possibly dead) rank's slot.
func (a *Array) accountRMA(ctx *machine.Ctx, owner int) {
	rank, powner := ctx.PhysRank(), ctx.PhysOf(owner)
	st := a.m.Stats()
	st.OnSend(rank, powner, 16)
	st.OnRecv(powner, rank, 16)
	st.OnSend(powner, rank, 8)
	st.OnRecv(rank, powner, 8)
	tr := a.m.Tracer()
	tr.Send(rank, powner, 16)
	tr.Recv(powner, rank, 16)
	tr.Send(powner, rank, 8)
	tr.Recv(rank, powner, 8)
	if cm := a.m.Cost(); cm != nil {
		cm.Charge(rank, 2*cm.Alpha+cm.Beta*24)
	}
}

// FillFunc sets every locally owned element to f(p).  Collective only in
// the sense that each processor fills its part; no communication.
func (a *Array) FillFunc(ctx *machine.Ctx, f func(p index.Point) float64) {
	l := a.Local(ctx)
	l.ForEachOwned(func(p index.Point, v *float64) { *v = f(p) })
}

// Fill sets every locally owned element to v.
func (a *Array) Fill(ctx *machine.Ctx, v float64) {
	a.FillFunc(ctx, func(index.Point) float64 { return v })
}

// String describes the array with the distribution rank 0 holds.
func (a *Array) String() string {
	d := a.Dist(0)
	if d == nil {
		return fmt.Sprintf("%s%v DYNAMIC (no distribution)", a.name, a.dom)
	}
	return fmt.Sprintf("%s%v DIST %v", a.name, a.dom, d)
}

// layout is the storage geometry of one processor's part of an array
// under one distribution: a dense column-major block over the owned
// extents plus ghost margins.  It is a pure function of (index domain,
// ghost widths, distribution, rank), so every processor can compute any
// peer's — which is how a DISTRIBUTE addresses a peer's storage through
// the window without reading the peer's Local.
type layout struct {
	grid  index.Grid // owned global indices
	shape []int      // owned counts per dim
	gLo   []int      // ghost width below (only block-family dims)
	gHi   []int      // ghost width above
	alloc []int      // allocated extents = shape + gLo + gHi
	strd  []int      // column-major strides over alloc
	size  int        // allocated elements, the product of alloc
	// fast per-dimension addressing: for single stride-1 runs the local
	// index is i - base[k]; otherwise IndexOf on the run set.
	base   []int
	simple []bool
	runs   []index.Run // backs grid's run sets (lay)
}

// Local is one processor's storage for its part of an Array: its layout
// and the data laid out by it.
type Local struct {
	rank int
	dom  index.Domain
	layout
	data []float64
	// own is the rect of the owned set in data; ownDims holds its
	// dimensions while they fit.
	own     msg.Rect
	ownDims [4]msg.RectDim
	// segment descriptor (§3.2.1), precomputed because kernels query it
	// every sweep; nil slices when the owned set is not one contiguous
	// block per dimension.  seg backs them up to rank 4.
	segLo []int
	segHi []int
	segOK bool
	seg   [8]int
}

// lay makes l rank's storage geometry under d in l's own tables and
// runs, so laying out a rank's own or a peer's storage allocates nothing
// once l has held as large a layout.
func (a *Array) lay(l *layout, rank int, d *dist.Distribution) {
	if r := a.dom.Rank(); l.grid.Dims == nil {
		l.grid.Dims, l.runs = make([]index.RunSet, 0, r), make([]index.Run, 0, r)
	}
	g, runs := d.LocalGridInto(l.grid, l.runs[:0], rank)
	for k, w := range a.ghost {
		if rs := g.Dims[k]; w > 0 && rs.Count() > 0 && (len(rs) != 1 || rs[0].Stride != 1) {
			panic(fmt.Sprintf("darray: %s: ghost areas need a contiguous (block-family) dimension %d, distribution is %v",
				a.name, k+1, d.DistType()))
		}
	}
	l.runs = runs
	l.set(g, a.ghost, a.dom)
}

// newLayout lays g out column-major, with margins of the given ghost
// widths (nil: none) clipped at dom's boundary; a dimension with ghosts
// must be one stride-1 run.
func newLayout(g index.Grid, ghost []int, dom index.Domain) layout {
	var l layout
	l.set(g, ghost, dom)
	return l
}

// set is newLayout in l's own tables.
func (l *layout) set(g index.Grid, ghost []int, dom index.Domain) {
	r := g.Rank()
	if len(l.shape) != r {
		// One backing array for the six per-dimension tables; capacities
		// are clipped so an append to one (Shape and Stride are handed
		// out) can never run into the next.
		ints := make([]int, 6*r)
		cut := func(i int) []int { return ints[i*r : (i+1)*r : (i+1)*r] }
		l.shape, l.gLo, l.gHi, l.alloc, l.strd, l.base = cut(0), cut(1), cut(2), cut(3), cut(4), cut(5)
		l.simple = make([]bool, r)
	}
	l.grid = g
	n := 1
	for k := 0; k < r; k++ {
		rs := g.Dims[k]
		l.shape[k] = rs.Count()
		l.simple[k], l.base[k], l.gLo[k], l.gHi[k] = false, 0, 0, 0
		if len(rs) == 1 && rs[0].Stride == 1 {
			l.simple[k] = true
			l.base[k] = rs[0].Lo
		} else if l.shape[k] == 0 {
			l.simple[k] = true
		}
		if ghost != nil && ghost[k] > 0 && l.shape[k] > 0 {
			// ghosts clipped at the domain boundary
			l.gLo[k] = min(ghost[k], l.base[k]-dom.Lo[k])
			l.gHi[k] = min(ghost[k], dom.Hi[k]-rs[0].Hi)
		}
		l.alloc[k] = l.shape[k] + l.gLo[k] + l.gHi[k]
		l.strd[k] = n
		n *= l.alloc[k]
	}
	l.size = n
}

// describe derives l's owned rect and segment descriptor from its layout.
func (l *Local) describe() {
	r := len(l.shape)
	l.own = msg.Rect{Dims: l.ownDims[:0]}
	for k, n := range l.shape {
		l.own.Off += l.gLo[k] * l.strd[k]
		l.own.Dims = append(l.own.Dims, msg.RectDim{Stride: l.strd[k], Count: n})
	}
	seg := l.seg[:]
	if 2*r > len(seg) {
		seg = make([]int, 2*r)
	}
	l.segLo, l.segHi, l.segOK = seg[:r:r], seg[r:2*r], true
	for k, rs := range l.grid.Dims {
		if len(rs) != 1 || rs[0].Stride != 1 {
			l.segLo, l.segHi, l.segOK = nil, nil, false
			break
		}
		l.segLo[k], l.segHi[k] = rs[0].Lo, rs[0].Hi
	}
}

// takeLocal returns storage for d: a Local retired under the same mapping
// (the steady state of phase-alternating DISTRIBUTE sequences), else the
// largest one retired, laid out anew and its data regrown if short (a
// rebalance to fresh bounds), else a fresh one.  Whatever the caller reads
// before writing reads 0, as in a fresh allocation.  overwritten is its
// promise to write every owned element before the Local is published — a
// transferring DISTRIBUTE does, by the self copy plus one incoming
// transfer per foreign owner — so recycled storage is cleared only
// without that promise or with ghost cells, which no transfer writes.
func (a *Array) takeLocal(rank int, d *dist.Distribution, overwritten bool) *Local {
	own := &a.own[rank]
	fp := d.Fingerprint()
	l, ok := own.retired[fp]
	if !ok {
		for k, r := range own.retired {
			if l == nil || cap(r.data) > cap(l.data) {
				fp, l = k, r
			}
		}
		if l == nil {
			l = &Local{rank: rank, dom: a.dom}
		}
		a.lay(&l.layout, rank, d)
		l.describe()
		if cap(l.data) < l.size { // fresh storage reads 0
			delete(own.retired, fp)
			l.data = make([]float64, l.size)
			return l
		}
		l.data = l.data[:l.size]
	}
	delete(own.retired, fp)
	if !overwritten || l.size != l.grid.Count() {
		clear(l.data)
	}
	return l
}

// maxRetired bounds how many mappings' storage a rank parks; programs
// alternating among more distributions than this fall back to allocation.
const maxRetired = 4

// retireLocal parks replaced storage for a later DISTRIBUTE back to the
// same mapping, or to any whose layout it can hold.
func (a *Array) retireLocal(rank int, d *dist.Distribution, l *Local) {
	m := a.own[rank].retired
	if m == nil {
		m = make(map[string]*Local, maxRetired)
		a.own[rank].retired = m
	}
	fp := d.Fingerprint()
	if _, ok := m[fp]; !ok && len(m) >= maxRetired {
		return
	}
	m[fp] = l
}

// Grid returns the owned global index set.
func (l *Local) Grid() index.Grid { return l.grid }

// Count returns the number of owned elements.
func (l *Local) Count() int { return l.grid.Count() }

// Data exposes the raw local storage (owned + ghost cells, column-major
// over AllocShape).  Kernels use it with Offset for index-free loops.
func (l *Local) Data() []float64 { return l.data }

// AllocShape returns the allocated extents including ghosts.
func (l *Local) AllocShape() []int { return l.alloc }

// Segment returns the owned global bounds per dimension when every
// dimension is contiguous; ok is false otherwise (the `segment`
// descriptor of §3.2.1).  The returned slices are shared (the descriptor
// is precomputed once per local allocation) and must not be modified.
func (l *Local) Segment() (lo, hi []int, ok bool) {
	return l.segLo, l.segHi, l.segOK
}

// li returns the local storage index of global index i along dimension k
// (including the ghost offset).  For contiguous dimensions, indices up to
// the allocated ghost margins are valid.
func (l *layout) li(k, i int) int {
	if l.simple[k] {
		return i - l.base[k] + l.gLo[k]
	}
	pos := l.grid.Dims[k].IndexOf(i)
	if pos < 0 {
		panic(fmt.Sprintf("darray: global index %d of dim %d not in owned set %v", i, k+1, l.grid.Dims[k]))
	}
	return pos + l.gLo[k]
}

// Offset returns the storage offset of global point p (the loc_map of
// §3.2.1).  Ghost cells of contiguous dimensions are addressable.
func (l *Local) Offset(p index.Point) int {
	off := 0
	for k, i := range p {
		li := l.li(k, i)
		if li < 0 || li >= l.alloc[k] {
			l.outside(p, k)
		}
		off += li * l.strd[k]
	}
	return off
}

// outside is Offset's panic, out of line and formatting a copy of the
// point, so the point Offset is given does not escape: a caller's
// index.Point{i} stays on its stack.
//
//go:noinline
func (l *Local) outside(p index.Point, k int) {
	panic(fmt.Sprintf("darray: point %v outside local allocation of rank %d (dim %d)", slices.Clone(p), l.rank, k+1))
}

// At reads the element at global point p (must be local or ghost).
func (l *Local) At(p index.Point) float64 { return l.data[l.Offset(p)] }

// SetAt writes the element at global point p (must be local or ghost).
func (l *Local) SetAt(p index.Point, v float64) { l.data[l.Offset(p)] = v }

// Owns reports whether global point p is owned (ghosts excluded).
func (l *Local) Owns(p index.Point) bool { return l.grid.Contains(p) }

// ForEachOwned calls f with every owned global point and a pointer to its
// storage.  The point is reused between calls.  Internally this walks the
// owned set run by run (Grid.ForEachRun): the storage offset is computed
// once per owned run of dimension 0, whose elements lie next to each
// other in storage, so filling and reducing stay off the per-point
// loc_map path.
func (l *Local) ForEachOwned(f func(p index.Point, v *float64)) {
	l.grid.ForEachRun(func(p index.Point, r index.Run) bool {
		off := l.Offset(p)
		for i := r.Lo; i <= r.Hi; i += r.Stride {
			p[0] = i
			f(p, &l.data[off])
			off++
		}
		return true
	})
}

// Stride returns the column-major storage strides (over AllocShape).
func (l *Local) Stride() []int { return l.strd }
