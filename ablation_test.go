package vienna

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - pipeline chunking in the static ADI baseline (latency/parallelism
//     trade-off of the "compiler-embedded" communication);
//   - schedule cache on repeated redistribution (first vs. later rounds).

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

func BenchmarkADIPipelineChunk(b *testing.B) {
	for _, chunk := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			var last apps.ADIResult
			for i := 0; i < b.N; i++ {
				res, err := apps.RunADI(apps.ADIConfig{
					NX: 128, NY: 128, Iters: 2, P: 4, Mode: apps.ADIStaticCols,
					ChunkRows: chunk, Alpha: benchAlpha, Beta: benchBeta,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.SweepMsgs), "sweep-msgs/run")
			b.ReportMetric(last.ModelTime*1e3, "model-ms/run")
		})
	}
}

func BenchmarkRedistributeCacheAblation(b *testing.B) {
	// first round (cold schedules, cache misses) vs steady state: measure
	// one cold build+exchange against the average of many warm rounds.
	mkDists := func(m *machine.Machine) (*dist.Distribution, *dist.Distribution) {
		tg := m.ProcsDim("P", 4).Whole()
		dom := index.Dim(1 << 14)
		return dist.MustNew(dist.NewType(dist.BlockDim()), dom, tg),
			dist.MustNew(dist.NewType(dist.CyclicDim(4)), dom, tg)
	}
	b.Run("coldSchedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := machine.New(4)
			d1, d2 := mkDists(m)
			for r := 0; r < 4; r++ {
				s := d1.LocalGrid(r)
				for peer := 0; peer < 4; peer++ {
					_ = s.Intersect(d2.LocalGrid(peer))
				}
			}
			m.Close()
		}
	})
	b.Run("warmExchangeOnly", func(b *testing.B) {
		res, err := apps.RunRedistCost(apps.RedistCostConfig{
			N0: 1 << 14, P: 4, Rounds: maxI(b.N, 2),
			From: []dist.DimSpec{dist.BlockDim()},
			To:   []dist.DimSpec{dist.CyclicDim(4)},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.WallPerRound.Nanoseconds()), "ns/redist")
	})
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
