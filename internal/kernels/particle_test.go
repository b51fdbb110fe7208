package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// particleRef is update_field one cell at a time, the chain as Figure 2's
// serial oracles write it.
func particleRef(field, count []float64, work int) {
	for i, c := range count {
		acc := field[i]
		for w := 0; w < int(c)*work; w++ {
			acc += 1e-9 * float64(w%7)
		}
		field[i] = acc + c
	}
}

// TestParticleWorkBitIdentical compares ParticleWork with the per-cell
// chain by Float64bits over 0 to 17 cells (whole groups of interleave and
// tails), on uniform, ragged and zero counts and with one lane far longer
// than its group's others.
func TestParticleWorkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name  string
		count func(n int) []float64
	}{
		{"uniform", func(n int) []float64 { return fill(n, func(int) float64 { return 13 }) }},
		{"zero", func(n int) []float64 { return make([]float64, n) }},
		{"ragged", func(n int) []float64 { return fill(n, func(int) float64 { return float64(rng.Intn(30)) }) }},
		{"some zero", func(n int) []float64 { return fill(n, func(i int) float64 { return float64(i % 3 * (5 + i)) }) }},
		{"one long", func(n int) []float64 {
			return fill(n, func(i int) float64 {
				if i%interleave == 5 {
					return 94
				}
				return 4
			})
		}},
	}
	for _, shape := range shapes {
		for n := 0; n <= 2*interleave+1; n++ {
			for _, work := range []int{1, 4, 400} {
				count := shape.count(n)
				want := fill(n, func(int) float64 { return rng.Float64() })
				got := append([]float64(nil), want...)
				particleRef(want, count, work)
				ParticleWork(got, count, work)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %d cells, work %d: cell %d (count %v) = %v, per-cell chain %v",
							shape.name, n, work, i, count[i], got[i], want[i])
					}
				}
			}
		}
	}
}

func TestParticleWorkAllocatesNothing(t *testing.T) {
	count := fill(2*interleave+3, func(i int) float64 { return float64(i) })
	field := make([]float64, len(count))
	if n := testing.AllocsPerRun(10, func() { ParticleWork(field, count, 4) }); n != 0 {
		t.Fatalf("ParticleWork: %v allocations per call, want 0", n)
	}
}

func fill(n int, f func(i int) float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = f(i)
	}
	return s
}

// BenchmarkParticleWork times update_field on one rank's 128 cells of the
// pic_rebalance shape (512 particles a cell, one op a particle): uniform,
// as the run starts, and piled up, as Figure 2's drift leaves it — the
// last cell holding a fifth of the particles, which no lockstep hides —
// for ParticleWork and the per-cell chain it replaces.
func BenchmarkParticleWork(b *testing.B) {
	uniform := fill(128, func(int) float64 { return 512 })
	pileup := append([]float64(nil), uniform...)
	pileup[len(pileup)-1] = 51512
	for _, st := range []struct {
		name  string
		count []float64
	}{{"uniform", uniform}, {"pileup", pileup}} {
		terms := 0.0
		for _, c := range st.count {
			terms += c
		}
		for _, k := range []struct {
			name string
			run  func(field, count []float64, work int)
		}{{"lanes", ParticleWork}, {"percell", particleRef}} {
			b.Run(st.name+"/"+k.name, func(b *testing.B) {
				field := make([]float64, len(st.count))
				for i := 0; i < b.N; i++ {
					k.run(field, st.count, 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/terms, "ns/term")
			})
		}
	}
}
