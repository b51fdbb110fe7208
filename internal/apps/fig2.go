package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/interp"
)

// Fig2Source is Figure 2 made runnable, with FIELD's elided trailing
// dimensions replaced by RunPIC's connect class (COUNT holds each cell's
// particles).  It computes what RunPIC computes with NCell 128, Steps 60,
// Rebalance and the defaults.
const Fig2Source = `
PARAMETER (NCELL = 128, MAX_TIME = 60)
INTEGER BOUNDS($NP)
REAL FIELD(NCELL) DYNAMIC, DIST( BLOCK )
REAL COUNT(NCELL) DYNAMIC, CONNECT(=FIELD)

C Compute initial position of particles
CALL INITPOS(FIELD, COUNT)
C Compute initial partition of cells
CALL BALANCE(BOUNDS, COUNT)
DISTRIBUTE FIELD :: ( B_BLOCK (BOUNDS) )

DO K = 1, MAX_TIME
C Compute new field
  CALL UPDATE_FIELD(FIELD, COUNT)
C Compute new particle positions and reassign them
  CALL UPDATE_PART(COUNT)
C Rebalance every 10th iteration if necessary
  IF (MOD(K, 10) .EQ. 0) THEN
    CALL REBALANCE(COUNT, K)
    IF (REBAL .EQ. 1) THEN
      CALL BALANCE(BOUNDS, COUNT)
      DISTRIBUTE FIELD :: ( B_BLOCK (BOUNDS) )
    ENDIF
  ENDIF
ENDDO
`

// RegisterFig2 installs Fig2Source's helper procedures, each RunPIC's own
// code under its defaults.  BALANCE fills the replicated BOUNDS; an
// UPDATE_PART is a drift block of one step, as an interpreted loop
// promises no longer one; REBALANCE gathers a batch of one on view rank 0,
// which decides and broadcasts REBAL.
func RegisterFig2(in *interp.Interp) {
	cfg := PICConfig{}.withDefaults()
	reg := func(name string, arrays int, fn func(st *interp.State, a []*core.Array, args []any) error) {
		in.Register(name, func(st *interp.State, args []any) error {
			a := make([]*core.Array, arrays)
			for i := range a {
				var aa *interp.ArrayArg
				if i < len(args) {
					aa, _ = args[i].(*interp.ArrayArg)
				}
				if aa == nil {
					return fmt.Errorf("%s: argument %d must be an array", name, i+1)
				}
				a[i] = aa.Arr
			}
			return fn(st, a, args)
		})
	}
	reg("INITPOS", 2, func(st *interp.State, a []*core.Array, _ []any) error {
		initPos(st.Ctx, cfg, a[1], a[0])
		return nil
	})
	reg("BALANCE", 2, func(st *interp.State, a []*core.Array, _ []any) error {
		bounds, err := picBounds(st.Ctx, a[1], nil)
		if err != nil {
			return err
		}
		l := a[0].Local(st.Ctx)
		for i, b := range bounds {
			l.SetAt(index.Point{i + 1}, float64(b))
		}
		return nil
	})
	reg("UPDATE_FIELD", 2, func(st *interp.State, a []*core.Array, _ []any) error {
		return updateField(st.Ctx, cfg, a[1], a[0])
	})
	reg("UPDATE_PART", 1, func(st *interp.State, a []*core.Array, _ []any) error {
		return (&drift{frac: cfg.DriftFrac}).step(st.Ctx, a[0], 1)
	})
	reg("REBALANCE", 1, func(st *interp.State, a []*core.Array, args []any) error {
		k, ok := args[len(args)-1].(float64)
		if len(args) != 2 || !ok {
			return fmt.Errorf("REBALANCE needs (COUNT, K)")
		}
		var b imbalances
		b.add(st.Ctx, a[0])
		imbs, _, err := b.flush(st.Ctx, nil)
		if err != nil {
			return err
		}
		var rebal []int // view rank 0's decision: [1] to rebalance, empty not to
		if st.Ctx.Rank() == 0 {
			if imbs[0] > cfg.RebalanceThreshold {
				rebal = []int{1}
			}
			fmt.Printf("  step %3.0f: imbalance %.3f  (dist %v)\n", k, imbs[0], a[0].DistType(0))
		}
		if rebal, err = st.Ctx.Comm().BcastInts(0, rebal); err != nil {
			return err
		}
		st.Scalars["REBAL"] = float64(len(rebal))
		return nil
	})
}
