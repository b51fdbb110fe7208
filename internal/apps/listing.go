package apps

import (
	"errors"
	"maps"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/sem"
)

// ListingArray is one distributed array of a finished listing run: its
// element sum, final distribution type and DISTRIBUTE count.
type ListingArray struct {
	Name, Dist  string
	Sum         float64
	Distributes int
}

// ListingResult is a listing run's outcome: its distributed arrays in
// declaration order and its final scalars ($NP included).
type ListingResult struct {
	Outcome
	Arrays  []ListingArray
	Scalars map[string]float64
}

// RunListing executes a checked program on p processors under the step
// loop of RunADI, RunPIC and RunSmoothing, with Figure 2's procedures
// registered.  The loop is the program's driver loop (sem.Unit.Cut): the
// top-level declarations are declare, the other statements before it the
// fresh start, one trip of its body step(it) and the statements after it
// end.  A program without one is all fresh start and one empty
// iteration.  A checkpoint's meta holds the scalars (PARAMETERs and $NP
// aside) and names the arrays whose bounds read $NP (ckpt.PerProcessor).
func RunListing(unit *sem.Unit, p int, rt Runtime) (*ListingResult, error) {
	l := unit.Cut(p)
	res := &ListingResult{}
	err := run(runConfig{P: p, Iters: l.Trips, Runtime: rt}, &res.Outcome, func(ctx *machine.Ctx) app {
		in := interp.New(nil)
		RegisterFig2(in)
		if rt.Straggler.Enabled() {
			in.Report = rt.Straggler.report
		}
		var st *interp.State
		return app{
			declare: func(eng *core.Engine) (err error) {
				in.Engine = eng
				if st, err = in.NewState(ctx, unit); err != nil {
					return err
				}
				return st.Run(l.Decls)
			},
			fill: func() error { return st.Run(l.Pre) },
			begin: func(_ int, meta map[string]string) (err error) {
				for k, s := range meta {
					if k != "iter" && k != ckpt.PerProcessor && err == nil {
						st.Scalars[k], err = strconv.ParseFloat(s, 64)
					}
				}
				return err
			},
			rebalance: func([]float64) error { return errors.New("apps: a listing's distributions are its own to rebalance") },
			step: func(it int) error {
				if l.Loop == nil {
					return nil
				}
				return st.Trip(l.Loop, float64(l.From+it*l.Step))
			},
			save: func(meta map[string]string) {
				for k, v := range st.Scalars {
					if _, param := unit.Params[k]; !param && k != "$NP" {
						meta[k] = strconv.FormatFloat(v, 'g', -1, 64)
					}
				}
				meta[ckpt.PerProcessor] = strings.Join(l.PerNP, ",")
			},
			end: func() error {
				if err := st.Run(l.Post); err != nil {
					return err
				}
				var arrays []ListingArray
				for _, n := range unit.Order {
					arr, _ := st.Array(n)
					if !arr.Distributed(ctx.Rank()) {
						continue
					}
					data, err := arr.GatherTo(ctx, 0)
					if err != nil {
						return err
					}
					arrays = append(arrays, ListingArray{n, arr.DistType(0).String(), sum(data), arr.Epoch(0)})
				}
				if ctx.Rank() == 0 {
					res.Arrays, res.Scalars = arrays, maps.Clone(st.Scalars)
				}
				return nil
			},
		}
	})
	return res, err
}
