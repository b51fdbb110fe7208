package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// ErrNoEpoch is the error of a restore that finds no committed
// checkpoint epoch; every rank of the restore returns it, or none does.
var ErrNoEpoch = errors.New("ckpt: no committed checkpoint")

// PerProcessor is the Meta key naming, comma-separated, the arrays with
// one element per processor (bounds that read $NP).  Restored onto
// another processor count such an array keeps its declared value, as a
// B_BLOCK degrades to BLOCK.
const PerProcessor = "per-processor"

// RestoreResult reports what a restore did.
type RestoreResult struct {
	Manifest *Manifest
	// Resized is true when the checkpoint was written by a different
	// number of ranks than the restoring machine has.
	Resized bool
	// Repaired counts rank-file reconstructions this rank performed while
	// reading — nonzero means the epoch was read in degraded mode and
	// healed in place.  Per-rank, informational.
	Repaired int
}

// RestoreOpts fills the given arrays from the newest verifiably
// complete epoch in dir (collective).  Epoch selection distrusts the
// directory: an epoch whose manifest is unreadable or invalid, or whose
// rank files are damaged beyond what its redundancy can reconstruct, is
// skipped and the next older one is tried — restore falls back epoch by
// epoch to the newest one that can actually be read.  Damaged rank files
// encountered while reading are reconstructed from redundancy and
// repaired in place (self-healing).
//
// Arrays are matched to the manifest by name; every manifest array must
// be present with its checkpointed domain, PerProcessor arrays aside
// (extra live arrays are left untouched).  Each array is first
// re-associated with the restored distribution descriptor — replayed
// exactly when the surviving machine can host the recorded processor
// arrangement, re-factored over the surviving ranks otherwise
// (np-dependent S_BLOCK/B_BLOCK specifiers degrade to BLOCK).  Then every
// rank reads the saved rank files whose grids meet what it now owns,
// one file at a time, and unpacks those parts.  Ghost areas are left
// stale; refresh them with ExchangeAllGhosts before stencil use.
func RestoreOpts(ctx *machine.Ctx, dir string, arrays []*darray.Array, opts Options) (*RestoreResult, error) {
	rank, np := ctx.Rank(), ctx.NP()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	d := opts.disk(rank, ctx.Tracer())

	// Rank 0 locates the newest usable epoch — verifying completeness
	// and falling back past damaged ones — and broadcasts the manifest
	// so every rank restores the same epoch even if a concurrent writer
	// commits meanwhile.  The rank files its verification flagged ride
	// along; the others are known intact, and no rank checksums them again.
	var manBytes []byte
	var scanErr error
	if rank == 0 {
		epoch, man, bad, skipped, err := latestUsable(d, dir)
		switch {
		case err != nil:
			scanErr = err
		case epoch < 0 && skipped != nil:
			scanErr = fmt.Errorf("%w in %s (newest epoch skipped: %v)", ErrNoEpoch, dir, skipped)
		case epoch < 0:
			scanErr = fmt.Errorf("%w in %s", ErrNoEpoch, dir)
		default:
			manBytes, scanErr = json.Marshal(restorePlan{Manifest: *man, Bad: bad})
		}
		if scanErr != nil {
			manBytes = nil // every rank returns ErrNoEpoch
			if !errors.Is(scanErr, ErrNoEpoch) {
				manBytes = []byte(scanErr.Error()) // not a plan: no rank does
			}
		}
	}
	manBytes, err := ctx.Comm().Bcast(0, manBytes)
	switch {
	case err != nil:
		return nil, fmt.Errorf("ckpt: manifest broadcast: %w", err)
	case scanErr != nil:
		return nil, scanErr
	case len(manBytes) == 0:
		return nil, fmt.Errorf("%w in %s", ErrNoEpoch, dir)
	case manBytes[0] != '{':
		return nil, fmt.Errorf("ckpt: rank 0: %s", manBytes)
	}
	plan, err := decodePlan(manBytes)
	if err != nil {
		return nil, err
	}
	man := plan.Manifest

	byName := make(map[string]*darray.Array, len(arrays))
	for _, a := range arrays {
		byName[a.Name()] = a
	}

	// Adopt every array's restored descriptor first, and note which parts
	// of which saved rank files this rank now owns.
	locals := make([]*darray.Local, len(man.Arrays))
	need := make([][]piece, man.NP)
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
			if man.NP != np && slices.Contains(strings.Split(man.Meta[PerProcessor], ","), am.Name) {
				continue // one element per processor: it keeps its declared value
			}
			return nil, fmt.Errorf("ckpt: array %s: domain %v in checkpoint, %v declared", am.Name, dom, arr.Domain())
		}
		neu, kept, err := restoredDist(ctx, am, dom)
		if err != nil {
			return nil, fmt.Errorf("ckpt: array %s: rebuilding distribution: %w", am.Name, err)
		}
		// Adopt the descriptor without moving the (stale) data.
		if err := arr.RedistributeTo(ctx, neu, darray.NoTransfer()); err != nil {
			return nil, fmt.Errorf("ckpt: array %s: %w", am.Name, err)
		}
		locals[ai] = arr.Local(ctx)
		mine := locals[ai].Grid()
		if kept && man.NP == np && neu.Standard() && neu.IsPrimaryRank(rank) {
			// Saved from this arrangement: the rank's file holds its grid.
			if !mine.Empty() {
				need[rank] = append(need[rank], piece{ai, mine, mine})
			}
			continue
		}
		saved, err := replay(am.Dist, dom)
		if err != nil {
			return nil, fmt.Errorf("ckpt: array %s: %w", am.Name, err)
		}
		for r := range need {
			if !saved.IsPrimaryRank(r) {
				continue
			}
			g := saved.LocalGrid(r)
			if part := mine.Intersect(g); !part.Empty() {
				need[r] = append(need[r], piece{ai, g, part})
			}
		}
	}

	res := &RestoreResult{Manifest: &man, Resized: man.NP != np}
	epochDir := filepath.Join(dir, epochDirName(man.Epoch))
	set := man.stripeSet(epochDir)
	fill := func(r int, pieces []piece) error {
		read := set.ReadIntact
		if slices.Contains(plan.Bad, r) {
			read = set.ReadStripe
		}
		data, repaired, err := read(d, r, true)
		if err != nil {
			return err
		}
		if repaired {
			res.Repaired++
		}
		payloads, err := filePayloads(data, &man, epochDir, r)
		if err != nil {
			return err
		}
		for _, pc := range pieces {
			payload := payloads[pc.ai]
			if msg.Float64Count(payload) != pc.g.Count() {
				return fmt.Errorf("ckpt: array %s: rank file %d holds %d values, its grid has %d",
					man.Arrays[pc.ai].Name, r, msg.Float64Count(payload), pc.g.Count())
			}
			l := locals[pc.ai]
			if !slices.EqualFunc(pc.g.Dims, l.Grid().Dims, index.RunSet.Equal) {
				l.UnpackPart(pc.part, pc.g, payload)
			} else if err := l.ApplyOwned(payload); err != nil {
				return fmt.Errorf("ckpt: array %s: rank file %d: %w", man.Arrays[pc.ai].Name, r, err)
			}
		}
		return nil
	}
	// Saved files outer, arrays inner: at most one file is resident.
	var fillErr error
	for r, pieces := range need {
		if len(pieces) > 0 && fillErr == nil {
			fillErr = fill(r, pieces)
		}
	}
	if err := agree(ctx, fillErr); err != nil {
		return nil, fmt.Errorf("ckpt: restore: %w", err)
	}
	if err := ctx.Barrier(); err != nil {
		return nil, fmt.Errorf("ckpt: restore barrier: %w", err)
	}
	return res, nil
}

// piece is one array's part of one saved rank file that the restoring
// rank now owns: part of the file's grid g.
type piece struct {
	ai      int
	g, part index.Grid
}

// restoredDist is the destination distribution on the live machine: the
// recorded arrangement when the sizes match exactly (kept), a balanced
// re-factorization over all np ranks otherwise.  Both directions resize:
// a restore onto fewer ranks (shrink recovery) compacts the arrangement,
// and a restore onto more ranks (expand recovery after a join) spreads it
// so the new members own data instead of idling.
func restoredDist(ctx *machine.Ctx, am ArrayMeta, dom index.Domain) (*dist.Distribution, bool, error) {
	oldExt := am.Dist.TargetExtents
	newExt := oldExt
	if (virtualTarget{ext: oldExt}).Size() != ctx.NP() {
		newExt = balancedExtents(ctx.NP(), len(oldExt))
	}
	newMeta, kept := am.Dist, slices.Equal(newExt, oldExt)
	if !kept {
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
	return neu.d, kept, neu.err
}

// restorePlan is rank 0's broadcast at the start of a restore: the
// chosen epoch's manifest and the rank files its verification flagged.
// With none flagged it marshals to exactly the manifest's JSON.
type restorePlan struct {
	Manifest
	Bad []int `json:",omitempty"`
}

// decodePlan decodes a restore broadcast and validates it — manifest and
// flagged files alike — before any data file is read: whatever the bytes,
// it returns a plan a restore can trust or an error.
func decodePlan(b []byte) (restorePlan, error) {
	var plan restorePlan
	if err := json.Unmarshal(b, &plan); err != nil {
		return plan, fmt.Errorf("ckpt: manifest decode: %w", err)
	}
	if err := plan.validate(); err != nil {
		return plan, fmt.Errorf("ckpt: manifest: %w", err)
	}
	for _, r := range plan.Bad {
		if r < 0 || r >= plan.NP {
			return plan, fmt.Errorf("ckpt: manifest: flagged rank file %d of %d", r, plan.NP)
		}
	}
	return plan, nil
}

// filePayloads parses rank file r's body into per-array payloads in
// manifest order, validating the header against the manifest.
func filePayloads(data []byte, man *Manifest, epochDir string, r int) ([][]byte, error) {
	name := rankFileName(r)
	if len(data) < 20 {
		return nil, fmt.Errorf("ckpt: %s/%s: truncated header", epochDir, name)
	}
	u32 := func(off int) int { return int(getU32(data, off)) }
	if u32(0) != fileMagic || u32(4) != Version || u32(8) != man.Epoch || u32(12) != r {
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
