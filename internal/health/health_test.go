package health

import (
	"testing"
)

// report is rank's line of s's health report.
func report(s *Scorer, rank int) RankReport { return s.Report([]int{rank})[0] }

// feed folds one per-unit-cost observation into rank's score: each call
// advances the cumulative counters by (units, units×cost) so the delta
// scored is exactly cost seconds per unit.
type feeder struct {
	seq   []int64
	units []float64
	secs  []float64
}

func newFeeder(np int) *feeder {
	return &feeder{seq: make([]int64, np), units: make([]float64, np), secs: make([]float64, np)}
}

func (f *feeder) feed(s *Scorer, rank int, cost float64) {
	f.seq[rank]++
	f.units[rank] += 100
	f.secs[rank] += 100 * cost
	s.Observe(rank, f.seq[rank], f.units[rank], f.secs[rank])
}

// warm gives every rank of the 4-rank scorer w nominal-cost rounds.
func warm(s *Scorer, f *feeder, rounds int) {
	for i := 0; i < rounds; i++ {
		for r := 0; r < 4; r++ {
			f.feed(s, r, 1.0)
		}
	}
}

// TestHealthDetectsStraggler: a persistent 8× rank crosses Degraded (and
// then Suspect) after the hysteresis streak; the healthy ranks stay put.
func TestHealthDetectsStraggler(t *testing.T) {
	s := New(4, Config{Window: 4, DegradedRatio: 2, SuspectRatio: 6, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i := 0; i < 12; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 8.0)
	}
	if c := report(s, 3).Class; c != Suspect {
		t.Fatalf("8x rank classified %v after 12 rounds, want suspect", c)
	}
	for r := 0; r < 3; r++ {
		if c := report(s, r).Class; c != Healthy {
			t.Fatalf("healthy rank %d classified %v", r, c)
		}
	}
	if sd := report(s, 3).Slowdown; sd < 4 {
		t.Fatalf("slowdown(3) = %.2f, want ≈8", sd)
	}
	rep := s.Report([]int{0, 1, 2, 3})
	if !rep[3].EverDegraded || rep[0].EverDegraded {
		t.Fatalf("EverDegraded flags wrong: %+v", rep)
	}
	worst, class, _, ok := s.Worst([]int{0, 1, 2, 3})
	if !ok || worst != 3 || class != Suspect {
		t.Fatalf("Worst = (%d, %v, ok=%v), want rank 3 suspect", worst, class, ok)
	}
}

// TestHysteresisSingleSlowStepNeverFlips: the satellite's exact claim —
// one slow observation (however extreme) must not change the
// classification, at any configured hysteresis.
func TestHysteresisSingleSlowStepNeverFlips(t *testing.T) {
	for _, hyst := range []int{0, 1, 2, 3, 5} {
		s := New(4, Config{Window: 2, DegradedRatio: 1.5, Hysteresis: hyst})
		f := newFeeder(4)
		warm(s, f, 4)
		// One catastrophic step on rank 2: a 100× pause.
		for r := 0; r < 2; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 2, 100.0)
		f.feed(s, 3, 1.0)
		if c := report(s, 2).Class; c != Healthy {
			t.Fatalf("hysteresis=%d: a single slow step flipped rank 2 to %v", hyst, c)
		}
	}
}

// TestPauseEchoNeverFlips: one pause followed by nominal steps must not
// flip a rank, even though the EWMA stays far above the median for
// several observations afterwards.
func TestPauseEchoNeverFlips(t *testing.T) {
	for _, hyst := range []int{2, 3} {
		s := New(4, Config{Window: 4, DegradedRatio: 2, Hysteresis: hyst})
		f := newFeeder(4)
		warm(s, f, 4)
		f.feed(s, 1, 100.0)
		for i := 0; i < 8; i++ {
			for r := 0; r < 4; r++ {
				f.feed(s, r, 1.0)
			}
			if rep := report(s, 1); rep.Class != Healthy || rep.EverDegraded {
				t.Fatalf("hysteresis=%d: round %d after one pause rank 1 is %v (ever degraded %v)", hyst, i, rep.Class, rep.EverDegraded)
			}
		}
	}
}

// TestStreakSurvivesBandFlicker: a straggler whose cost flickers across
// the Suspect line is classified after one streak, as the milder band.
func TestStreakSurvivesBandFlicker(t *testing.T) {
	s := New(4, Config{Window: 4, DegradedRatio: 2, SuspectRatio: 6, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i, cost := range []float64{20, 5, 20} {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, cost)
		if c := report(s, 3).Class; i < 2 && c != Healthy {
			t.Fatalf("rank 3 classified %v after %d observations", c, i+1)
		}
	}
	if c := report(s, 3).Class; c != Degraded {
		t.Fatalf("flickering straggler = %v after 3 slow observations, want degraded", c)
	}
}

// TestHysteresisRecovery: a rank that was Degraded returns to Healthy
// only after a full streak of nominal observations — and its
// EverDegraded flag stays set for the run's report.
func TestHysteresisRecovery(t *testing.T) {
	s := New(4, Config{Window: 2, DegradedRatio: 2, Hysteresis: 3})
	f := newFeeder(4)
	warm(s, f, 4)
	for i := 0; i < 10; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 4.0)
	}
	if c := report(s, 3).Class; c != Degraded {
		t.Fatalf("rank 3 = %v, want degraded", c)
	}
	// Recovery: nominal again.  The short window forgets fast; the
	// class must lag by the hysteresis streak, then flip back.
	flipped := -1
	for i := 0; i < 12; i++ {
		for r := 0; r < 4; r++ {
			f.feed(s, r, 1.0)
		}
		if report(s, 3).Class == Healthy {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("recovered rank never reclassified healthy")
	}
	if flipped < 2 {
		t.Fatalf("reclassified healthy after %d rounds, want >= hysteresis lag", flipped+1)
	}
	if !s.Report([]int{3})[0].EverDegraded {
		t.Fatal("EverDegraded cleared by recovery")
	}
}

// TestHealthDedupBySeq: replaying the same report sequence must fold in
// exactly one observation.
func TestHealthDedupBySeq(t *testing.T) {
	s := New(2, Config{})
	for i := 0; i < 5; i++ { // same report, five monitors
		s.Observe(1, 1, 100, 100)
	}
	if n := report(s, 1).Observations; n != 1 {
		t.Fatalf("observations = %d after replaying seq 1 five times, want 1", n)
	}
	s.Observe(1, 0, 50, 50) // stale sequence: ignored
	if n := report(s, 1).Observations; n != 1 {
		t.Fatalf("stale sequence was scored: observations = %d", n)
	}
}

// TestHealthSpeeds: the weights handed to a throughput-aware rebalance —
// the straggler's relative speed is ≈ 1/slowdown, healthy ranks ≈ 1.
func TestHealthSpeeds(t *testing.T) {
	s := New(4, Config{Window: 4})
	f := newFeeder(4)
	for i := 0; i < 16; i++ {
		for r := 0; r < 3; r++ {
			f.feed(s, r, 1.0)
		}
		f.feed(s, 3, 8.0)
	}
	sp := s.Speeds([]int{0, 1, 2, 3})
	for r := 0; r < 3; r++ {
		if sp[r] < 0.9 || sp[r] > 1.1 {
			t.Fatalf("healthy rank %d speed = %.3f, want ≈1", r, sp[r])
		}
	}
	if sp[3] > 0.2 {
		t.Fatalf("straggler speed = %.3f, want ≈0.125", sp[3])
	}
}

// TestHealthNoObservationsIsHealthy: before any report everything is
// Healthy at slowdown 1 — the policy has nothing to act on.
func TestHealthNoObservationsIsHealthy(t *testing.T) {
	s := New(3, Config{})
	if _, _, _, ok := s.Worst([]int{0, 1, 2}); ok {
		t.Fatal("Worst found a straggler in an empty scorer")
	}
	if report(s, 1).Class != Healthy || report(s, 1).Slowdown != 1 {
		t.Fatal("unobserved rank not nominal")
	}
	sp := s.Speeds([]int{0, 1, 2})
	for i, v := range sp {
		if v != 1 {
			t.Fatalf("speed[%d] = %v, want 1", i, v)
		}
	}
}

// TestHealthDefaultsClampHysteresis: the defaulting must never allow a
// hysteresis that lets one observation flip a class.
func TestHealthDefaultsClampHysteresis(t *testing.T) {
	if h := (Config{Hysteresis: 1}).withDefaults().Hysteresis; h < 2 {
		t.Fatalf("Hysteresis=1 defaulted to %d, want >= 2", h)
	}
	c := Config{}.withDefaults()
	if c.Window <= 0 || c.DegradedRatio <= 1 || c.SuspectRatio <= c.DegradedRatio || c.Hysteresis < 2 {
		t.Fatalf("zero config defaults unusable: %+v", c)
	}
}
