package ckpt

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
	"repro/internal/trace"
)

// RestoreResult reports what a restore did.
type RestoreResult struct {
	Manifest *Manifest
	// Resized is true when the checkpoint was written by a different
	// number of ranks than the restoring machine has.
	Resized bool
	// Repaired counts stripe reconstructions this rank performed while
	// reading — nonzero means the epoch was read in degraded mode and
	// healed in place.  Per-rank, informational.
	Repaired int
}

// RestoreOpts fills the given arrays from the newest verifiably
// complete epoch in dir (collective).  Epoch selection distrusts the
// directory: an epoch whose manifest is unreadable, or whose data files
// are damaged beyond what its redundancy can reconstruct, is skipped
// and the next older one is tried — restore falls back epoch by epoch
// to the newest one that can actually be read.  Damaged stripes
// encountered while reading are reconstructed from redundancy and
// repaired in place (self-healing).
//
// Arrays are matched to the manifest by name; every manifest array must
// be present (extra live arrays are left untouched).  Each array is
// first re-associated with the restored distribution descriptor —
// replayed exactly when the surviving machine can host the recorded
// processor arrangement, re-factored over the surviving ranks otherwise
// (np-dependent S_BLOCK/B_BLOCK specifiers degrade to BLOCK) — and then
// filled with the recorded values.  Ghost areas are left stale; refresh
// them with ExchangeGhosts before stencil use.
func RestoreOpts(ctx *machine.Ctx, dir string, arrays []*darray.Array, opts Options) (*RestoreResult, error) {
	rank, np := ctx.Rank(), ctx.NP()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(np)
	f := opts.FS(rank)
	cfg := opts.IO
	tr := ctx.Tracer()

	// Rank 0 locates the newest usable epoch — verifying completeness
	// and falling back past damaged ones — and broadcasts the manifest
	// so every rank restores the same epoch even if a concurrent writer
	// commits meanwhile.  The data stripes its verification flagged ride
	// along; the others are known intact, and no rank checksums them again.
	var manBytes []byte
	var scanErr error
	if rank == 0 {
		epoch, man, bad, skipped, err := latestUsable(f, cfg, tr, rank, dir)
		switch {
		case err != nil:
			scanErr = err
		case epoch < 0 && skipped != nil:
			scanErr = fmt.Errorf("ckpt: no committed checkpoint in %s (newest epoch skipped: %v)", dir, skipped)
		case epoch < 0:
			scanErr = fmt.Errorf("ckpt: no committed checkpoint in %s", dir)
		default:
			manBytes, scanErr = json.Marshal(restorePlan{Manifest: *man, Bad: bad})
		}
		if scanErr != nil {
			manBytes = nil
		}
	}
	manBytes, err := ctx.Comm().Bcast(0, manBytes)
	if err != nil {
		return nil, fmt.Errorf("ckpt: manifest broadcast: %w", err)
	}
	if len(manBytes) == 0 {
		if scanErr != nil {
			return nil, scanErr
		}
		return nil, fmt.Errorf("ckpt: no committed checkpoint in %s", dir)
	}
	var plan restorePlan
	if err := json.Unmarshal(manBytes, &plan); err != nil {
		return nil, fmt.Errorf("ckpt: manifest decode: %w", err)
	}
	man := plan.Manifest
	epochDir := filepath.Join(dir, epochDirName(man.Epoch))

	byName := make(map[string]*darray.Array, len(arrays))
	for _, a := range arrays {
		byName[a.Name()] = a
	}

	res := &RestoreResult{Manifest: &man, Resized: man.NP != np}

	// The reader caches stripe files, so each rank touches each file at
	// most once per restore.
	if man.NS <= 0 || len(man.Stripes) != man.NS {
		return nil, fmt.Errorf("ckpt: manifest lists %d stripes for NS=%d", len(man.Stripes), man.NS)
	}
	stripes := newStripeReader(f, cfg, tr, rank, epochDir, &man, plan.Bad)

	for ai, am := range man.Arrays {
		arr, ok := byName[am.Name]
		if !ok {
			return nil, fmt.Errorf("ckpt: checkpointed array %s is not declared in the restoring program", am.Name)
		}
		dom, err := domainOf(am)
		if err != nil {
			return nil, err
		}
		if !arr.Domain().Equal(dom) {
			return nil, fmt.Errorf("ckpt: array %s: domain %v in checkpoint, %v declared", am.Name, dom, arr.Domain())
		}

		// The destination distribution on the live machine: the recorded
		// arrangement when the sizes match exactly, a balanced
		// re-factorization over all np ranks otherwise.  Both directions
		// resize: a restore onto fewer ranks (shrink recovery) compacts
		// the arrangement, and a restore onto more ranks (expand
		// recovery after a join) spreads it so the new members own data
		// instead of idling.
		oldExt := am.Dist.TargetExtents
		newExt := oldExt
		if (virtualTarget{ext: oldExt}).Size() != np {
			newExt = balancedExtents(np, len(oldExt))
		}
		newMeta := am.Dist
		if !intsEqual(newExt, oldExt) {
			newMeta = remapDims(am.Dist, newExt)
		}
		procName := "$CKPT"
		for _, e := range newExt {
			procName += "x" + strconv.Itoa(e)
		}
		target := ctx.Machine().ProcsDim(procName, newExt...).Whole()
		type distOrErr struct {
			d   *dist.Distribution
			err error
		}
		neu := ctx.CollectiveOnce(func() any {
			typ, err := typeOf(newMeta)
			if err != nil {
				return distOrErr{nil, err}
			}
			d, err := dist.New(typ, dom, target)
			return distOrErr{d, err}
		}).(distOrErr)
		if neu.err != nil {
			return nil, fmt.Errorf("ckpt: array %s: rebuilding distribution: %w", am.Name, neu.err)
		}

		// Adopt the descriptor without moving the (stale) data, then fill
		// the owned spans from the recorded bytes.
		if err := arr.RedistributeTo(ctx, neu.d, darray.NoTransfer()); err != nil {
			return nil, fmt.Errorf("ckpt: array %s: %w", am.Name, err)
		}
		l := arr.Local(ctx)
		myGrid := l.Grid()

		fillErr := stripes.fill(l, myGrid, am, ai, dom)
		if err := agree(ctx, fillErr); err != nil {
			return nil, fmt.Errorf("ckpt: array %s: restore: %w", am.Name, err)
		}
	}
	res.Repaired = stripes.repaired
	if err := ctx.Barrier(); err != nil {
		return nil, fmt.Errorf("ckpt: restore barrier: %w", err)
	}
	return res, nil
}

// restorePlan is rank 0's broadcast at the start of a restore: the
// chosen epoch's manifest and the data stripes its verification flagged.
// With none flagged it marshals to exactly the manifest's JSON.
type restorePlan struct {
	Manifest
	Bad []int `json:",omitempty"`
}

// stripeReader reads (and if need be reconstructs and heals) the stripe
// files of one epoch, parsing each into per-array payloads on first
// touch.  A stripe rank 0's verification found intact is only
// size-checked: the window between that check and this read is trusted.
type stripeReader struct {
	f        pario.FS
	cfg      pario.Config
	tr       *trace.Tracer
	rank     int
	epochDir string
	man      *Manifest
	set      pario.StripeSet
	bad      []int // data stripes rank 0's verification flagged
	loaded   map[int][][]byte
	repaired int
	scratch  []byte // fill's extraction buffer, reused from stripe to stripe
}

func newStripeReader(f pario.FS, cfg pario.Config, tr *trace.Tracer, rank int, epochDir string, man *Manifest, bad []int) *stripeReader {
	return &stripeReader{
		f: f, cfg: cfg, tr: tr, rank: rank, epochDir: epochDir, man: man, bad: bad,
		set:    man.stripeSet(epochDir),
		loaded: make(map[int][][]byte),
	}
}

// payloadsOf returns stripe s's per-array payloads, reading and healing
// the stripe file on first use.
func (sr *stripeReader) payloadsOf(s int) ([][]byte, error) {
	if p, ok := sr.loaded[s]; ok {
		return p, nil
	}
	read := sr.set.ReadIntact
	if slices.Contains(sr.bad, s) {
		read = sr.set.ReadStripe
	}
	data, repaired, err := read(sr.f, sr.cfg, sr.tr, sr.rank, s, true)
	if err != nil {
		return nil, err
	}
	if repaired {
		sr.repaired++
	}
	p, err := stripePayloads(data, sr.man, sr.epochDir, s)
	if err != nil {
		return nil, err
	}
	sr.loaded[s] = p
	return p, nil
}

// fill unpacks the spans of myGrid from the stripes it intersects.
func (sr *stripeReader) fill(l *darray.Local, myGrid index.Grid, am ArrayMeta, ai int, dom index.Domain) error {
	grids := pario.StripeGrids(dom, sr.man.NS)
	for s, sg := range grids {
		inter := myGrid.Intersect(sg)
		if inter.Empty() {
			continue
		}
		payloads, err := sr.payloadsOf(s)
		if err != nil {
			return err
		}
		payload := payloads[ai]
		if msg.Float64Count(payload) != sg.Count() {
			return fmt.Errorf("ckpt: array %s: stripe %d payload has %d values, grid has %d",
				am.Name, s, msg.Float64Count(payload), sg.Count())
		}
		if gridsEqual(inter, sg) && gridsEqual(inter, myGrid) {
			l.UnpackWire(myGrid, payload)
			continue
		}
		sr.scratch, _ = msg.GrowFloat64s(sr.scratch[:0], inter.Count())
		pario.Extract(sr.scratch, payload, sg, inter)
		l.UnpackWire(inter, sr.scratch)
	}
	return nil
}

// stripePayloads parses one stripe file's body into per-array payloads
// in manifest order, validating the header against the manifest.
func stripePayloads(data []byte, man *Manifest, epochDir string, s int) ([][]byte, error) {
	name := stripeFileName(s)
	if len(data) < 20 {
		return nil, fmt.Errorf("ckpt: %s/%s: truncated header", epochDir, name)
	}
	u32 := func(off int) int { return int(getU32(data, off)) }
	if u32(0) != stripeMagic || u32(4) != Version || u32(8) != man.Epoch || u32(12) != s {
		return nil, fmt.Errorf("ckpt: %s/%s: header mismatch", epochDir, name)
	}
	narr := u32(16)
	if narr != len(man.Arrays) {
		return nil, fmt.Errorf("ckpt: %s/%s: %d arrays recorded, manifest has %d", epochDir, name, narr, len(man.Arrays))
	}
	payloads := make([][]byte, narr)
	off := 20
	for i := 0; i < narr; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("ckpt: %s/%s: truncated payload table", epochDir, name)
		}
		n := u32(off)
		off += 4
		if off+8*n > len(data) {
			return nil, fmt.Errorf("ckpt: %s/%s: truncated payload %d", epochDir, name, i)
		}
		payloads[i] = data[off : off+8*n]
		off += 8 * n
	}
	return payloads, nil
}
