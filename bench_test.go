package vienna

// The benchmarks the spine (go run ./bench) does not measure under a
// declared name: redistribution under a memory budget, elastic
// scale-out and the straggler defense; ablation_test.go holds the
// design-choice ablations.  Whole-run
// ADI / PIC / smoothing, DISTRIBUTE cost, checkpoint I/O and the
// transport and collective micros are the spine's workloads and probes.
//
// Custom metrics: data messages per run (msgs/run), payload bytes per run
// (bytes/run), and peak wire residency (peakwire).

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/dist"
)

const (
	benchAlpha = 1e-4 // 100µs startup — iPSC-class latency
	benchBeta  = 1e-8 // 10ns/byte — ~100 MB/s
)

// BenchmarkRedistributeBudget times a block->cyclic crossing unbounded
// and with the planner capped at an eighth of the array: throughput
// should hold (every plan runs the same ring, whole or per panel, and
// moves the same bytes) while the reported peak wire residency stays
// within the budget.
func BenchmarkRedistributeBudget(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		bytesTotal := int64(n * 8)
		for _, budget := range []int64{0, bytesTotal / 8} {
			name := fmt.Sprintf("blockToCyclic/N%d/P4/unbounded", n)
			if budget > 0 {
				name = fmt.Sprintf("blockToCyclic/N%d/P4/budget%dK", n, budget>>10)
			}
			b.Run(name, func(b *testing.B) {
				var last apps.RedistCostResult
				for i := 0; i < b.N; i++ {
					res, err := apps.RunRedistCost(apps.RedistCostConfig{
						N0: n, P: 4, Rounds: 2,
						From:  []dist.DimSpec{dist.BlockDim()},
						To:    []dist.DimSpec{dist.CyclicDim(1)},
						Alpha: benchAlpha, Beta: benchBeta,
						MemBudget: budget,
					})
					if err != nil {
						b.Fatal(err)
					}
					if budget > 0 && res.PeakWireBytes > budget {
						b.Fatalf("peak wire %d exceeds budget %d", res.PeakWireBytes, budget)
					}
					last = res
				}
				b.ReportMetric(last.BytesPerRound, "bytes/redist")
				b.ReportMetric(float64(last.PeakWireBytes), "peakwire")
			})
		}
	}
}

// BenchmarkExpandADI times elastic scale-OUT end to end: a 3-rank
// dynamic ADI with one reserved joiner admits it at iteration boundary
// 2, replays the checkpoint onto the grown 4-rank view, and finishes
// bit-exact ("elastic"), next to the same problem run on 4 ranks from
// the start ("static4") — the price of growing mid-run versus having
// the capacity up front.
func BenchmarkExpandADI(b *testing.B) {
	base := apps.ADIConfig{
		NX: 32, NY: 32, Iters: 6, Mode: apps.ADIDynamic, Validate: true,
		Alpha: benchAlpha, Beta: benchBeta,
	}
	b.Run("elastic/N32/P3+1", func(b *testing.B) {
		var last apps.ADIResult
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.P = 3
			cfg.CkptDir, cfg.CkptEvery = b.TempDir(), 1
			cfg.CommTimeout, cfg.CommRetries = 150*time.Millisecond, 2
			cfg.Join, cfg.JoinAfterIter = 1, 2
			res, err := apps.RunADI(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.FinalEpoch < 1 {
				b.Fatal("joiner never admitted")
			}
			if res.MaxErr != 0 {
				b.Fatalf("MaxErr = %g after expansion, want exactly 0", res.MaxErr)
			}
			last = res
		}
		b.ReportMetric(float64(last.Msgs), "msgs/run")
		b.ReportMetric(float64(last.Bytes), "bytes/run")
		b.ReportMetric(float64(last.PeakWireBytes), "peakwire")
	})
	b.Run("static4/N32/P4", func(b *testing.B) {
		var last apps.ADIResult
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.P = 4
			res, err := apps.RunADI(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.MaxErr != 0 {
				b.Fatalf("MaxErr = %g, want exactly 0", res.MaxErr)
			}
			last = res
		}
		b.ReportMetric(float64(last.Msgs), "msgs/run")
		b.ReportMetric(float64(last.Bytes), "bytes/run")
		b.ReportMetric(float64(last.PeakWireBytes), "peakwire")
	})
}

// BenchmarkStraggler times the straggler defense end to end on the
// dynamic ADI with rank 2's compute stretched 8×: mitigation off (the
// straggler's critical path sets the pace), throughput-weighted B_BLOCK
// rebalancing (the slow rank keeps proportionally less of each
// dimension), and voluntary drain (checkpoint, scale-in by the
// straggler, survivors replay onto the shrunken membership).  Every run
// asserts the scorer classified the injected rank Degraded and the
// result matches the serial reference bit for bit, so the three ns/op
// figures compare do-nothing against both mitigations.
func BenchmarkStraggler(b *testing.B) {
	for _, policy := range []string{"off", "rebalance", "drain"} {
		b.Run(policy+"/N64/P4", func(b *testing.B) {
			var last apps.ADIResult
			for i := 0; i < b.N; i++ {
				cfg := apps.ADIConfig{
					NX: 64, NY: 64, Iters: 30, P: 4, Mode: apps.ADIDynamic, Validate: true,
					Runtime: apps.Runtime{
						CommTimeout: 250 * time.Millisecond, CommRetries: 2,
						Straggler: apps.StragglerConfig{
							HealthWindow: 4, DegradedRatio: 2, Hysteresis: 2,
							Policy: policy, CheckAfter: 3, SlowRank: 2, SlowFactor: 8,
						},
					},
				}
				if policy == "drain" {
					cfg.CkptDir, cfg.CkptEvery = b.TempDir(), 4
				}
				res, err := apps.RunADI(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.DegradedRank != 2 {
					b.Fatalf("DegradedRank = %d, want the injected straggler 2", res.DegradedRank)
				}
				if policy == "drain" && res.FinalEpoch < 1 {
					b.Fatal("the straggler was never drained")
				}
				if res.MaxErr != 0 {
					b.Fatalf("MaxErr = %g under policy %s, want exactly 0", res.MaxErr, policy)
				}
				last = res
			}
			b.ReportMetric(float64(last.DegradedRank), "degraded-rank")
			b.ReportMetric(float64(len(last.Drained)), "drained/run")
			b.ReportMetric(float64(last.Msgs), "msgs/run")
		})
	}
}
