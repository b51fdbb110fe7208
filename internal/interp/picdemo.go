package interp

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/msg"
	"repro/internal/scale"
)

// Builtins backing the Figure 2 demo: the PIC helper procedures the paper
// calls but does not show (initpos, balance, update_field, update_part,
// rebalance).  FIELD(c, 1) holds cell c's particle count; FIELD(c, 2)
// accumulates the "field".  BOUNDS is a replicated integer array that
// balance() fills with B_BLOCK upper bounds equalizing particles.

const picDrift = 0.3 // fraction of particles drifting rightward per step

// RegisterPICDemo installs the Figure 2 helper procedures (INITPOS,
// BALANCE, UPDATE_FIELD, UPDATE_PART, REBALANCE, IMBALANCE) used by the
// runnable PIC demo (PICDemoSource) and its tests.
func RegisterPICDemo(in *Interp) {
	in.Register("INITPOS", func(st *State, args []any) error {
		fa := args[0].(*ArrayArg)
		fa.Arr.FillFunc(st.Ctx, func(p index.Point) float64 {
			if p[1] == 1 {
				return 64 // uniform loading
			}
			return 0
		})
		return nil
	})

	in.Register("BALANCE", func(st *State, args []any) error {
		ba := args[0].(*ArrayArg)
		fa := args[1].(*ArrayArg)
		ctx := st.Ctx
		// Every cell has one owner, so summing each rank's dense vector of
		// its own cells' counts gives every rank the exact counts.
		counts := make([]float64, fa.Arr.Domain().Extent(0))
		fa.Arr.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if p[1] == 1 {
				counts[p[0]-1] = *v
			}
		})
		counts, err := ctx.Comm().AllreduceF64(counts, msg.SumF64)
		if err != nil {
			return err
		}
		bounds := scale.CountBounds(counts, ctx.NP())
		// store into the replicated BOUNDS array
		lb := ba.Arr.Local(ctx)
		for i, b := range bounds {
			lb.SetAt(index.Point{i + 1}, float64(b))
		}
		return nil
	})

	in.Register("UPDATE_FIELD", func(st *State, args []any) error {
		fa := args[0].(*ArrayArg)
		l := fa.Arr.Local(st.Ctx)
		l.ForEachOwned(func(p index.Point, v *float64) {
			if p[1] != 1 {
				return
			}
			// field accumulation proportional to the cell's particles
			q := index.Point{p[0], 2}
			l.SetAt(q, l.At(q)+*v)
		})
		return nil
	})

	in.Register("UPDATE_PART", func(st *State, args []any) error {
		fa := args[0].(*ArrayArg)
		ctx := st.Ctx
		arr := fa.Arr
		d := arr.DistOf(ctx.Rank())
		l := arr.Local(ctx)
		ncell := arr.Domain().Extent(0)
		rs := l.Grid().Dims[0]
		ep, pol, tr := ctx.Endpoint(), ctx.Comm().Retry(), ctx.Tracer()
		const tag = 9400
		var outflow float64
		lastIdx := -1
		if rs.Count() > 0 {
			lo, hi := rs[0].Lo, rs[len(rs)-1].Hi
			for i := hi; i >= lo; i-- {
				p := index.Point{i, 1}
				c := l.At(p)
				mv := float64(int(c * picDrift))
				if i == ncell {
					continue // reflecting boundary
				}
				l.SetAt(p, c-mv)
				if i == hi {
					outflow, lastIdx = mv, i
				} else {
					q := index.Point{i + 1, 1}
					l.SetAt(q, l.At(q)+mv)
				}
			}
		}
		sendTo := -1
		if lastIdx >= 0 && lastIdx < ncell {
			sendTo = d.Owner(index.Point{lastIdx + 1, 1})
		}
		recvFrom := -1
		if rs.Count() > 0 && rs[0].Lo > 1 {
			recvFrom = d.Owner(index.Point{rs[0].Lo - 1, 1})
		}
		if sendTo >= 0 && sendTo != ctx.Rank() {
			if err := msg.SendRetry(ep, pol, tr, "update-part", sendTo, tag, msg.EncodeFloat64s([]float64{outflow, float64(lastIdx + 1)})); err != nil {
				return err
			}
		} else if sendTo == ctx.Rank() {
			q := index.Point{lastIdx + 1, 1}
			l.SetAt(q, l.At(q)+outflow)
		}
		if recvFrom >= 0 && recvFrom != ctx.Rank() {
			pk, err := msg.RecvRetry(ep, pol, tr, "update-part", recvFrom, tag)
			if err != nil {
				return err
			}
			if len(pk.Data) != 16 {
				return fmt.Errorf("interp: UPDATE_PART at rank %d: drift frame from rank %d has %d bytes, want 16", ctx.Rank(), recvFrom, len(pk.Data))
			}
			flow, at := msg.GetFloat64(pk.Data, 0), msg.GetFloat64(pk.Data, 8)
			if c := int(at); float64(c) != at || c < rs[0].Lo || c > rs[len(rs)-1].Hi {
				return fmt.Errorf("interp: UPDATE_PART at rank %d: drift frame from rank %d names cell %v outside cells %d..%d", ctx.Rank(), recvFrom, at, rs[0].Lo, rs[len(rs)-1].Hi)
			}
			q := index.Point{int(at), 1}
			l.SetAt(q, l.At(q)+flow)
		}
		return nil
	})

	// REBALANCE() returns 1 when max/avg particles per processor exceeds
	// 1.1 — the Figure 2 rebalance() predicate.  It stores the result in
	// the scalar REBAL (call: CALL REBALANCE(FIELD)).
	in.Register("REBALANCE", func(st *State, args []any) error {
		tot, mx, err := particleLoad(st, args[0].(*ArrayArg))
		if err != nil {
			return err
		}
		avg := tot / float64(st.Ctx.NP())
		st.Scalars["REBAL"] = 0
		if avg > 0 && mx/avg > 1.1 {
			st.Scalars["REBAL"] = 1
		}
		return nil
	})

	// IMBALANCE prints the current max/avg (rank 0 only).
	in.Register("IMBALANCE", func(st *State, args []any) error {
		fa := args[0].(*ArrayArg)
		step := args[1].(float64)
		tot, mx, err := particleLoad(st, fa)
		if err != nil {
			return err
		}
		if st.Ctx.Rank() == 0 {
			avg := tot / float64(st.Ctx.NP())
			fmt.Printf("  step %3.0f: imbalance %.3f  (dist %v)\n", step, mx/avg, fa.Arr.DistType(0))
		}
		return nil
	})
}

// particleLoad returns the total particle count and the largest on any
// one processor, identical everywhere: one allreduce of [sum, max].
func particleLoad(st *State, fa *ArrayArg) (tot, mx float64, err error) {
	ctx := st.Ctx
	local := 0.0
	fa.Arr.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
		if p[1] == 1 {
			local += *v
		}
	})
	r, err := ctx.Comm().AllreduceEach([]float64{local, local}, msg.SumF64, msg.MaxF64)
	if err != nil {
		return 0, 0, err
	}
	return r[0], r[1], nil
}

// PICDemoSource is Figure 2 made runnable: the structure is the paper's,
// with the helper procedures provided as builtins and the trailing array
// dimensions reduced to 2 planes (counts, field).
const PICDemoSource = `
PARAMETER (NCELL = 128, NPLANE = 2, MAX_TIME = 60)
INTEGER BOUNDS($NP)
REAL FIELD(NCELL, NPLANE) DYNAMIC, DIST( BLOCK, :)

C Compute initial position of particles
CALL INITPOS(FIELD, NCELL, NPLANE)
C Compute initial partition of cells
CALL BALANCE(BOUNDS, FIELD, NCELL, NPLANE)
DISTRIBUTE FIELD :: ( B_BLOCK (BOUNDS), : )

DO K = 1, MAX_TIME
C Compute new field
  CALL UPDATE_FIELD(FIELD, NCELL, NPLANE)
C Compute new particle positions and reassign them
  CALL UPDATE_PART(FIELD, NCELL, NPLANE)
C Rebalance every 10th iteration if necessary
  IF (MOD(K, 10) .EQ. 0) THEN
    CALL IMBALANCE(FIELD, K)
    CALL REBALANCE(FIELD)
    IF (REBAL .EQ. 1) THEN
      CALL BALANCE(BOUNDS, FIELD, NCELL, NPLANE)
      DISTRIBUTE FIELD :: ( B_BLOCK (BOUNDS), : )
    ENDIF
  ENDIF
ENDDO
`
