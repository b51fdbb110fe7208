package apps

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/trace"
)

// runPICFlushEvery runs cfg with the imbalance reduced on every step, the
// reference the batched reduction must reproduce.
func runPICFlushEvery(t *testing.T, cfg PICConfig) PICResult {
	t.Helper()
	testFlushEvery = true
	defer func() { testFlushEvery = false }()
	res, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// picFlushes is the number of batched reductions a run of steps
// 0..steps-1 makes: one at every rebalance check, at the last step and
// after every checkpoint.
func picFlushes(cfg PICConfig) int {
	n := 0
	for k := 1; k <= cfg.Steps; k++ {
		if k%cfg.RebalanceEvery == 0 || k == cfg.Steps || cfg.savesAfter(k) {
			n++
		}
	}
	return n
}

// samePICResult fails unless got and want carry bit-identical series,
// summaries, field, redistributions and particle counts.
func samePICResult(t *testing.T, got, want PICResult) {
	t.Helper()
	bits := func(v []float64) []uint64 {
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		return b
	}
	if g, w := fmt.Sprint(bits(got.ImbalanceSeries)), fmt.Sprint(bits(want.ImbalanceSeries)); g != w {
		t.Errorf("ImbalanceSeries %v, want %v", got.ImbalanceSeries, want.ImbalanceSeries)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"MeanImbalance", got.MeanImbalance, want.MeanImbalance},
		{"PeakImbalance", got.PeakImbalance, want.PeakImbalance},
		{"FinalImbalance", got.FinalImbalance, want.FinalImbalance},
		{"FieldChecksum", got.FieldChecksum, want.FieldChecksum},
		{"ParticlesEnd", got.ParticlesEnd, want.ParticlesEnd},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	if got.Redistributions != want.Redistributions {
		t.Errorf("Redistributions %d, want %d", got.Redistributions, want.Redistributions)
	}
}

// TestPICBatchedImbalanceBitExact: reducing the per-step particle sums
// in one batch per rebalance check, last step or checkpoint gives the
// series, the rebalance decisions and the field of a reduction on every
// step bit for bit, and saves exactly one gather — P−1 messages — on
// every other step.
func TestPICBatchedImbalanceBitExact(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for _, p := range []int{3, 4} {
			for _, reb := range []bool{false, true} {
				for _, ckptEvery := range []int{0, 7} {
					name := fmt.Sprintf("tcp=%v/P=%d/rebalance=%v/ckpt=%d", tcp, p, reb, ckptEvery)
					t.Run(name, func(t *testing.T) {
						cfg := PICConfig{
							NCell: 47, Steps: 25, P: p, Rebalance: reb, RebalanceEvery: 10,
							DriftFrac: 0.3, InitPerCell: 40, WorkPerParticle: 1,
							Runtime: Runtime{UseTCP: tcp},
						}
						if ckptEvery > 0 {
							cfg.CkptDir, cfg.CkptEvery = t.TempDir(), ckptEvery
						}
						got, err := RunPIC(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if ckptEvery > 0 {
							cfg.CkptDir = t.TempDir()
						}
						want := runPICFlushEvery(t, cfg)
						samePICResult(t, got, want)
						if reb && got.Redistributions < 2 {
							t.Errorf("%d redistributions: the run does not exercise the rebalance check", got.Redistributions)
						}
						saved := int64((p - 1) * (cfg.Steps - picFlushes(cfg)))
						if got.Msgs != want.Msgs-saved {
							t.Errorf("Msgs %d, want %d − %d = %d", got.Msgs, want.Msgs, saved, want.Msgs-saved)
						}
					})
				}
			}
		}
	}
}

// picUnit is one top-level span of a rank's trace — a collective, a
// DISTRIBUTE statement, a declaration — with the data messages the rank
// sent inside it.
type picUnit struct {
	name  string
	msgs  int
	pairs map[[2]int]bool // (sender, receiver)
	odd   int             // messages whose bytes are not whole FIELD+COUNT cell pairs
}

// picUnits splits rank's trace into its top-level spans.  Sends outside
// any span (the drift frames) belong to none.
func picUnits(tr *trace.Tracer, rank int) []picUnit {
	var units []picUnit
	depth := 0
	for _, e := range tr.Events(rank) {
		switch {
		case e.Kind == trace.KindBegin:
			if depth == 0 {
				units = append(units, picUnit{name: e.Name, pairs: map[[2]int]bool{}})
			}
			depth++
		case e.Kind == trace.KindEnd:
			depth--
		case e.Cat == trace.CatMsg && e.Name == "send" && e.Bytes > 0 && depth > 0:
			u := &units[len(units)-1]
			u.msgs++
			u.pairs[[2]int{rank, e.Peer}] = true
			if e.Bytes%16 != 0 {
				u.odd++
			}
		}
	}
	return units
}

// TestPICCheckTraffic counts, from the trace, the data messages of every
// balance round of Figure 2 — the initial balance and each rebalance
// check — on 2 to 7 ranks over chan and TCP: P−1 for the gather that
// brings the sums and COUNT to view rank 0, P−1 for the broadcast of the
// bounds or none when the check does not rebalance (its broadcast is
// empty), and one per moving peer pair for the DISTRIBUTE of the class
// {FIELD, COUNT}, each carrying as many COUNT cells as FIELD cells.  A
// static run broadcasts nothing.
func TestPICCheckTraffic(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for p := 2; p <= 7; p++ {
			for _, mode := range []string{"rebalance", "never", "static"} {
				t.Run(fmt.Sprintf("tcp=%v/P=%d/%s", tcp, p, mode), func(t *testing.T) {
					tr := trace.New(p)
					cfg := PICConfig{
						NCell: 47, Steps: 30, P: p, Rebalance: mode != "static", RebalanceEvery: 10,
						DriftFrac: 0.3, InitPerCell: 40, WorkPerParticle: 1,
						Runtime: Runtime{UseTCP: tcp, Tracer: tr},
					}
					if mode == "never" {
						cfg.RebalanceThreshold = 1e9
					}
					res, err := RunPIC(cfg)
					if err != nil {
						t.Fatal(err)
					}
					units := make([][]picUnit, p)
					for r := range units {
						units[r] = picUnits(tr, r)
						if len(units[r]) != len(units[0]) {
							t.Fatalf("rank %d has %d top-level spans, rank 0 %d", r, len(units[r]), len(units[0]))
						}
					}
					// sum folds unit i over the ranks.
					sum := func(i int) picUnit {
						s := picUnit{name: units[0][i].name, pairs: map[[2]int]bool{}}
						for r := range units {
							u := units[r][i]
							if u.name != s.name {
								t.Fatalf("span %d is %q on rank %d, %q on rank 0", i, u.name, r, s.name)
							}
							s.msgs += u.msgs
							s.odd += u.odd
							for k := range u.pairs {
								s.pairs[k] = true
							}
						}
						return s
					}
					rounds, moves := 0, 0
					for i := 0; i < len(units[0]); i++ {
						if u := sum(i); u.name == "bcast" && mode == "static" {
							t.Errorf("span %d: a static run broadcasts", i)
						}
						if i+1 >= len(units[0]) || units[0][i].name != "gather" || units[0][i+1].name != "bcast" {
							continue
						}
						rounds++
						gather, bcast := sum(i), sum(i+1)
						moved := i+2 < len(units[0]) && units[0][i+2].name == "DISTRIBUTE FIELD"
						want := 0
						if moved {
							want = p - 1
						}
						if gather.msgs != p-1 || bcast.msgs != want {
							t.Errorf("round %d: gather %d, broadcast %d data messages; want %d and %d", rounds, gather.msgs, bcast.msgs, p-1, want)
						}
						if !moved {
							continue
						}
						moves++
						d := sum(i + 2)
						if d.msgs != len(d.pairs) || d.odd != 0 {
							t.Errorf("round %d: DISTRIBUTE sent %d data messages over %d peer pairs (%d not FIELD+COUNT pairs of cells); want one per pair",
								rounds, d.msgs, len(d.pairs), d.odd)
						}
					}
					wantRounds := 0
					if cfg.Rebalance {
						wantRounds = 1 + cfg.Steps/cfg.RebalanceEvery
					}
					if rounds != wantRounds || moves != res.Redistributions {
						t.Errorf("%d balance rounds and %d DISTRIBUTEs, want %d and %d", rounds, moves, wantRounds, res.Redistributions)
					}
					if mode == "rebalance" && res.Redistributions < 2 {
						t.Errorf("%d redistributions: no check rebalanced", res.Redistributions)
					}
					if mode == "never" && res.Redistributions != 1 {
						t.Errorf("%d redistributions, want the initial balance alone", res.Redistributions)
					}
				})
			}
		}
	}
}

// TestPICBatchedImbalanceRecover: with checkpoints every 7 steps and a
// rebalance check every 10, a Recover run resumes mid-batch and its
// series from the resumed step on equals the uninterrupted run's.
func TestPICBatchedImbalanceRecover(t *testing.T) {
	cfg := PICConfig{
		NCell: 47, Steps: 25, P: 4, Rebalance: true, RebalanceEvery: 10,
		DriftFrac: 0.3, InitPerCell: 40, WorkPerParticle: 1,
	}
	whole, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := cfg
	first.Steps = 18 // checkpoints after steps 7 and 14
	first.CkptDir, first.CkptEvery = t.TempDir(), 7
	if _, err := RunPIC(first); err != nil {
		t.Fatal(err)
	}
	rec := cfg
	rec.CkptDir, rec.CkptEvery, rec.Recover = first.CkptDir, 7, true
	res, err := RunPIC(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedIter != 13 {
		t.Fatalf("resumed after iteration %d, want 13", res.ResumedIter)
	}
	for it := 14; it < cfg.Steps; it++ {
		if g, w := res.ImbalanceSeries[it], whole.ImbalanceSeries[it]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("step %d: imbalance %v after recovery, %v uninterrupted", it, g, w)
		}
	}
	if res.FieldChecksum != whole.FieldChecksum || res.Redistributions == 0 {
		t.Errorf("recovered field %v (%d redistributions), uninterrupted %v", res.FieldChecksum, res.Redistributions, whole.FieldChecksum)
	}
}

// TestPICBatchedImbalanceOnlineRecover: a rank killed mid-batch loses
// its pending sums, and the survivors' replay from the last checkpoint
// recomputes them.  No rebalance check falls in the run, so every step
// before that checkpoint is in the series only because a flush preceded
// each checkpoint.
func TestPICBatchedImbalanceOnlineRecover(t *testing.T) {
	cfg := PICConfig{
		NCell: 32, Steps: 16, P: 4, RebalanceEvery: 20, InitPerCell: 16,
		Runtime: Runtime{
			CkptEvery:     3,
			CommTimeout:   150 * time.Millisecond,
			CommRetries:   2,
			OnlineRecover: true,
		},
	}
	after := killAfter(t, 1, 9, 0, func() error {
		dry := cfg
		dry.CkptDir = t.TempDir()
		dry.Integrity = true // offers framed, as under the fault plan
		_, err := RunPIC(dry)
		return err
	})
	cfg.CkptDir = t.TempDir()
	cfg.Fault = fmt.Sprintf("drop,rank=1,after=%d", after)
	res, err := RunPIC(cfg)
	if err != nil {
		t.Fatalf("online PIC recovery: %v", err)
	}
	// How long detection takes makes the replay point approximate: any
	// replay from a checkpoint will do.
	if res.FinalEpoch < 1 || res.ResumedIter < 2 {
		t.Fatalf("finished on epoch %d resumed after iteration %d; want a kill replayed from a checkpoint", res.FinalEpoch, res.ResumedIter)
	}
	for it, v := range res.ImbalanceSeries {
		if v < 1 {
			t.Errorf("step %d: imbalance %v, never reduced", it, v)
		}
	}
	if res.ParticlesEnd != float64(32*16) {
		t.Fatalf("particles not conserved through online recovery: %v, want %v", res.ParticlesEnd, 32*16)
	}
}

// picReference is Figure 2 on one dense array, written from the listing
// and the PICConfig docs alone: no processors, no messages, one walk of
// the whole chain per step.  It returns the per-step imbalance, the final
// field and counts, and the number of balance() calls.  Particle counts
// stay whole numbers, so every sum below is exact in any order.
func picReference(cfg PICConfig) (series, field, count []float64, redists int) {
	n, np := cfg.NCell, cfg.P
	count, field = make([]float64, n), make([]float64, n)
	for i := range count {
		count[i] = float64(cfg.InitPerCell)
	}
	// last[r] is the last cell (1-based) processor r owns: BLOCK first.
	last := make([]int, np)
	for r := range last {
		last[r] = min((r+1)*((n+np-1)/np), n)
	}
	balance := func() {
		total := 0.0
		for _, c := range count {
			total += c
		}
		// Processor r's segment ends at the first cell where the running
		// total reaches (r+1)/np of the whole; a cell ends one segment at
		// most, and the last processor takes what is left.
		r, run := 0, 0.0
		for i, c := range count {
			run += c
			if r < np-1 && run >= total/float64(np)*float64(r+1) {
				last[r] = i + 1
				r++
			}
		}
		for ; r < np; r++ {
			last[r] = n
		}
		redists++
	}
	if cfg.Rebalance {
		balance()
	}
	for k := 1; k <= cfg.Steps; k++ {
		for i, c := range count { // update_field
			acc := field[i]
			for w := 0; w < int(c)*cfg.WorkPerParticle; w++ {
				acc += 1e-9 * float64(w%7)
			}
			field[i] = acc + c
		}
		for i := n - 2; i >= 0; i-- { // update_part; cell n reflects
			mv := float64(int(count[i] * cfg.DriftFrac))
			count[i] -= mv
			count[i+1] += mv
		}
		total, most, first := 0.0, 0.0, 0
		for _, l := range last {
			seg := 0.0
			for _, c := range count[first:l] {
				seg += c
			}
			total, most, first = total+seg, max(most, seg), l
		}
		imb := 1.0
		if avg := total / float64(np); avg != 0 {
			imb = most / avg
		}
		series = append(series, imb)
		if cfg.Rebalance && k%cfg.RebalanceEvery == 0 && imb > cfg.RebalanceThreshold {
			balance()
		}
	}
	return series, field, count, redists
}

// TestPICDriftMatchesSerial: the depth-k drift gives the serial
// reference's field, imbalance series, redistributions and final counts
// bit for bit on 2 to 7 ranks, on chan and TCP.  A sender's segment caps
// k below the check period in both shapes from P = 3 on: BLOCK over 23
// cells gives senders 4 to 8 cells (and rank 6 of 7 none), and the
// rebalanced B_BLOCK bounds give senders 5 to 8 cells at P = 5 and 7 and
// leave trailing ranks empty as the particles pile up on the right.
// Neither run's Steps is a multiple of the check period.
func TestPICDriftMatchesSerial(t *testing.T) {
	shapes := []PICConfig{
		{NCell: 23, Steps: 27, RebalanceEvery: 10, DriftFrac: 0.3, InitPerCell: 40},
		{NCell: 40, Steps: 37, Rebalance: true, RebalanceEvery: 10, RebalanceThreshold: 1.05, DriftFrac: 0.45, InitPerCell: 30},
	}
	for _, tcp := range []bool{false, true} {
		for _, p := range []int{2, 3, 4, 5, 7} {
			for _, shape := range shapes {
				cfg := shape
				cfg.P, cfg.WorkPerParticle, cfg.UseTCP = p, 1, tcp
				t.Run(fmt.Sprintf("tcp=%v/P=%d/rebalance=%v", tcp, p, cfg.Rebalance), func(t *testing.T) {
					got, err := RunPIC(cfg)
					if err != nil {
						t.Fatal(err)
					}
					series, field, count, redists := picReference(cfg)
					fieldSum := 0.0
					for _, f := range field {
						fieldSum += f
					}
					bits := func(v []float64) string {
						b := make([]uint64, len(v))
						for i, x := range v {
							b[i] = math.Float64bits(x)
						}
						return fmt.Sprint(b)
					}
					if bits(got.ImbalanceSeries) != bits(series) {
						t.Errorf("ImbalanceSeries %v, serial %v", got.ImbalanceSeries, series)
					}
					if bits(got.Counts) != bits(count) {
						t.Errorf("COUNT %v, serial %v", got.Counts, count)
					}
					if math.Float64bits(got.FieldChecksum) != math.Float64bits(fieldSum) {
						t.Errorf("FieldChecksum %v, serial %v", got.FieldChecksum, fieldSum)
					}
					if got.Redistributions != redists {
						t.Errorf("Redistributions %d, serial %d", got.Redistributions, redists)
					}
					if cfg.Rebalance && redists < 3 {
						t.Errorf("%d redistributions: the shape does not exercise rebalancing", redists)
					}
				})
			}
		}
	}
}

// onBlockCount runs body on every rank of a machine over tr, with COUNT
// declared BLOCK over ncell cells and every cell holding v.
func onBlockCount(tr msg.Transport, ncell int, v float64, body func(ctx *machine.Ctx, count *core.Array) error) error {
	m := machine.New(tr.NP(), machine.WithTransport(tr))
	defer m.Close()
	eng := core.NewEngine(m)
	return m.Run(func(ctx *machine.Ctx) error {
		count, err := eng.Declare(ctx, core.Decl{Name: "COUNT", Domain: index.Dim(ncell), Dynamic: true,
			Init: &core.DistSpec{Type: dist.NewType(dist.BlockDim())}})
		if err != nil {
			return err
		}
		count.FillFunc(ctx, func(index.Point) float64 { return v })
		if err := ctx.Barrier(); err != nil {
			return err
		}
		return body(ctx, count)
	})
}

// TestPICUpdateFieldMultiRun runs updateField on a FIELD/COUNT class
// distributed CYCLIC(k), where a rank owns several runs (or one strided
// run), as a Figure 2 listing may distribute it: every cell must match
// the per-cell chain bit for bit, with ragged counts, a pile-up cell and
// empty cells.
func TestPICUpdateFieldMultiRun(t *testing.T) {
	const ncell, steps = 53, 2
	cfg := PICConfig{WorkPerParticle: 3}
	countOf := func(i int) float64 { // cell 41 piles up; every 23rd is empty
		if i == 41 {
			return 300
		}
		return float64(i * 7 % 23)
	}
	want := make([]float64, ncell)
	for i := range want {
		want[i] = 0.5 * float64(i)
	}
	for range steps {
		for i, acc := range want {
			c := countOf(i + 1)
			for w := 0; w < int(c)*cfg.WorkPerParticle; w++ {
				acc += 1e-9 * float64(w%7)
			}
			want[i] = acc + c
		}
	}
	for _, k := range []int{1, 3, 4} {
		m := machine.New(3)
		eng := core.NewEngine(m)
		var got []float64
		err := m.Run(func(ctx *machine.Ctx) error {
			field, err := eng.Declare(ctx, core.Decl{Name: "FIELD", Domain: index.Dim(ncell), Dynamic: true,
				Init: &core.DistSpec{Type: dist.NewType(dist.CyclicDim(k))}})
			if err != nil {
				return err
			}
			count, err := eng.Declare(ctx, core.Decl{Name: "COUNT", Domain: index.Dim(ncell), Dynamic: true, ConnectTo: "FIELD"})
			if err != nil {
				return err
			}
			if runs := count.Local(ctx).Grid().Dims[0]; k > 1 && len(runs) < 2 {
				return fmt.Errorf("CYCLIC(%d): rank %d owns %v, one run", k, ctx.Rank(), runs)
			}
			count.FillFunc(ctx, func(p index.Point) float64 { return countOf(p[0]) })
			field.FillFunc(ctx, func(p index.Point) float64 { return 0.5 * float64(p[0]-1) })
			for range steps {
				if err := updateField(ctx, cfg, count, field); err != nil {
					return err
				}
			}
			all, err := field.GatherTo(ctx, 0)
			if ctx.Rank() == 0 {
				got = all
			}
			return err
		})
		m.Close()
		if err != nil {
			t.Fatalf("CYCLIC(%d): %v", k, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("CYCLIC(%d): cell %d = %v, per-cell chain %v", k, i+1, got[i], want[i])
			}
		}
	}
}

// TestPICDriftFramesPerBlock pins the drift traffic: static BLOCK on 4
// ranks with a check every 10 of 30 steps is three blocks of depth 10,
// one frame per sender (ranks 0–2) and block — 9 frames, where a frame a
// step would be 90 — and the counts still match the serial reference.
func TestPICDriftFramesPerBlock(t *testing.T) {
	cfg := PICConfig{NCell: 64, Steps: 30, P: 4, RebalanceEvery: 10, DriftFrac: 0.2, InitPerCell: 64}
	var frames atomic.Int64
	count := func(b []byte) []byte { frames.Add(1); return b }
	var got []float64
	tr := mangleTag{msg.NewChanTransport(cfg.P), driftTag, count}
	err := onBlockCount(tr, cfg.NCell, float64(cfg.InitPerCell), func(ctx *machine.Ctx, c *core.Array) error {
		dr := drift{frac: cfg.DriftFrac}
		for it := range cfg.Steps {
			if err := dr.step(ctx, c, cfg.driftHorizon(it)); err != nil {
				return err
			}
		}
		all, err := c.GatherTo(ctx, 0)
		if ctx.Rank() == 0 {
			got = all
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := frames.Load(); n != 9 {
		t.Errorf("%d drift frames, want 9 (3 senders × 3 blocks)", n)
	}
	_, _, want, _ := picReference(cfg)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d: %v particles, serial %v", i+1, got[i], want[i])
		}
	}
}

func TestCountBounds(t *testing.T) {
	counts := []float64{10, 10, 10, 10, 0, 0, 0, 0}
	b := CountBounds(counts, 4)
	if b[3] != 8 {
		t.Fatalf("last bound = %d", b[3])
	}
	// each processor should get ~10 particles: bounds 1,2,3,8
	if b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatalf("bounds = %v", b)
	}
	// degenerate: everything in one cell
	b = CountBounds([]float64{0, 0, 100, 0}, 2)
	if b[1] != 4 || b[0] < 2 {
		t.Fatalf("bounds = %v", b)
	}
	// heavy cells: one bound per cell, where the even weighted split
	// closes two blocks at cell 1 and two at cell 3
	heavy := []float64{93, 0, 65, 0, 0, 0, 0, 0, 20}
	if b := CountBounds(heavy, 5); fmt.Sprint(b) != "[1 2 3 4 9]" {
		t.Fatalf("bounds = %v, want [1 2 3 4 9]", b)
	}
	if b := WeightedCountBounds(heavy, []float64{0.2, 0.2, 0.2, 0.2, 0.2}); fmt.Sprint(b) != "[1 1 3 3 9]" {
		t.Fatalf("even weighted bounds = %v, want [1 1 3 3 9]", b)
	}
}

// TestWeightedCountBounds: a processor with half the work share ends its
// segment at half the particles, and a share past the last particle
// still ends at the last cell.
func TestWeightedCountBounds(t *testing.T) {
	counts := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	if b := WeightedCountBounds(counts, []float64{0.5, 0.25, 0.25}); b[0] != 4 || b[1] != 6 || b[2] != 8 {
		t.Fatalf("bounds = %v, want [4 6 8]", b)
	}
	if b := WeightedCountBounds([]float64{0, 5, 0}, []float64{0.25, 0.75}); b[0] != 2 || b[1] != 3 {
		t.Fatalf("bounds = %v, want [2 3]", b)
	}
}
