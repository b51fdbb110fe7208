package apps

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// RedistCostConfig parameterizes a DISTRIBUTE cost measurement (claim C4:
// "There are significant costs associated with using dynamic distribution
// of data").  The array ping-pongs between From and To `Round` times.
type RedistCostConfig struct {
	N0, N1 int // array extents (N1 = 0 for 1-D)
	P      int
	From   []dist.DimSpec
	To     []dist.DimSpec
	Rounds int
	// Alpha/Beta attach a cost model.
	Alpha, Beta float64
	// MemBudget bounds each redistribution's peak resident wire bytes per
	// rank (0 = unbounded: always the direct alltoallv plan).
	MemBudget int64
}

// RedistCostResult reports per-round averages.
type RedistCostResult struct {
	BytesPerRound   float64 // payload bytes moved per direction change
	MsgsPerRound    float64
	WallPerRound    time.Duration
	ModelPerRound   float64
	CacheHits       int
	CacheMisses     int
	ValuesPreserved bool
	// PeakWireBytes is the measured high-water mark of resident wire
	// bytes on any rank over the whole run (msg.Stats gauge) — with a
	// MemBudget set it must come in at or under the budget.
	PeakWireBytes int64
}

// RunRedistCost measures the cost of the DISTRIBUTE statement itself.
func RunRedistCost(cfg RedistCostConfig) (RedistCostResult, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	var mopts []machine.Option
	var cm *msg.CostModel
	if cfg.Alpha != 0 || cfg.Beta != 0 {
		cm = msg.NewCostModel(cfg.P, cfg.Alpha, cfg.Beta)
		mopts = append(mopts, machine.WithCostModel(cm))
	}
	m := machine.New(cfg.P, mopts...)
	defer m.Close()
	e := core.NewEngine(m)
	e.SetMemBudget(cfg.MemBudget)

	var dom index.Domain
	if cfg.N1 > 0 {
		dom = index.Dim(cfg.N0, cfg.N1)
	} else {
		dom = index.Dim(cfg.N0)
	}
	val := func(p index.Point) float64 {
		v := float64(p[0])
		if len(p) > 1 {
			v += 1000 * float64(p[1])
		}
		return v
	}

	res := RedistCostResult{ValuesPreserved: true}
	var wall time.Duration
	err := m.Run(func(ctx *machine.Ctx) error {
		a, err := e.Declare(ctx, core.Decl{Name: "A", Domain: dom, Dynamic: true,
			Init: &core.DistSpec{Type: dist.NewType(cfg.From...)}})
		if err != nil {
			return err
		}
		a.FillFunc(ctx, val)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		// Each round's two statements resolve to the two mappings the
		// ranks hold from the first round on, and allocate nothing.
		arrs, to, from := []*core.Array{a}, core.DimsOf(cfg.To...), core.DimsOf(cfg.From...)
		start := time.Now()
		for r := 0; r < cfg.Rounds; r++ {
			if err := e.Distribute(ctx, arrs, to); err != nil {
				return err
			}
			if err := e.Distribute(ctx, arrs, from); err != nil {
				return err
			}
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			wall = time.Since(start)
			res.CacheHits, res.CacheMisses = a.DArray().ScheduleCacheStats()
		}
		bad := 0
		a.Local(ctx).ForEachOwned(func(p index.Point, v *float64) {
			if *v != val(p) {
				bad++
			}
		})
		if bad > 0 {
			res.ValuesPreserved = false
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	sn := m.Stats().Snapshot()
	res.PeakWireBytes = m.Stats().PeakWireBytes()
	rounds := float64(2 * cfg.Rounds) // two redistributions per round
	res.BytesPerRound = float64(sn.TotalBytes()) / rounds
	res.MsgsPerRound = float64(sn.TotalDataMsgs()) / rounds
	res.WallPerRound = time.Duration(float64(wall) / rounds)
	if cm != nil {
		res.ModelPerRound = cm.Makespan() / rounds
	}
	return res, nil
}
