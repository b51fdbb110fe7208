package apps

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

func TestADIDynamicMatchesSerial(t *testing.T) {
	res, err := RunADI(ADIConfig{NX: 32, NY: 24, Iters: 3, P: 4, Mode: ADIDynamic, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-10 {
		t.Fatalf("dynamic ADI deviates from serial by %g", res.MaxErr)
	}
	if res.RedistMsgs == 0 || res.RedistBytes == 0 {
		t.Fatal("dynamic ADI should communicate during DISTRIBUTE")
	}
	if res.SweepMsgs != 0 {
		t.Fatalf("dynamic ADI sweeps must be communication-free, saw %d msgs", res.SweepMsgs)
	}
}

// The batched sweep is bit-identical to the serial reference on a grid
// where neither extent divides by P nor a rank's line count by the
// kernel's interleave width, so every tail path runs.
func TestADIDynamicRaggedBitExact(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		res, err := RunADI(ADIConfig{NX: 37, NY: 53, Iters: 3, P: 3, Mode: ADIDynamic, Validate: true, Runtime: Runtime{UseTCP: tcp}})
		if err != nil {
			t.Fatalf("tcp=%v: %v", tcp, err)
		}
		if res.MaxErr != 0 {
			t.Fatalf("tcp=%v: dynamic ADI deviates from serial by %g, want bit-exact", tcp, res.MaxErr)
		}
	}
}

// Extents around 64 on four ranks give blocks of 13 to 17 lines, so every
// tail of the sweep kernels — lines mod 4 beside the row kernel, lines
// mod interleave beside the lockstep one — runs in situ, on both
// transports, against the serial reference to the bit.
func TestADIOddExtentsBitIdentical(t *testing.T) {
	extents := []int{61, 62, 63, 67}
	for _, tcp := range []bool{false, true} {
		for _, nx := range extents {
			for _, ny := range extents {
				res, err := RunADI(ADIConfig{NX: nx, NY: ny, Iters: 2, P: 4, Mode: ADIDynamic, Validate: true, Runtime: Runtime{UseTCP: tcp}})
				if err != nil {
					t.Fatalf("%dx%d tcp=%v: %v", nx, ny, tcp, err)
				}
				if res.MaxErr != 0 {
					t.Errorf("%dx%d tcp=%v: dynamic ADI deviates from serial by %g, want bit-exact", nx, ny, tcp, res.MaxErr)
				}
			}
		}
	}
}

func TestADIStaticColsMatchesSerial(t *testing.T) {
	res, err := RunADI(ADIConfig{NX: 32, NY: 24, Iters: 3, P: 4, Mode: ADIStaticCols, Validate: true, ChunkRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-10 {
		t.Fatalf("static-cols ADI deviates from serial by %g", res.MaxErr)
	}
	if res.SweepMsgs == 0 {
		t.Fatal("static ADI must pay pipeline communication in the y-sweep")
	}
	if res.RedistMsgs != 0 {
		t.Fatal("static ADI must not redistribute")
	}
}

func TestADIStaticRowsMatchesSerial(t *testing.T) {
	res, err := RunADI(ADIConfig{NX: 24, NY: 32, Iters: 2, P: 3, Mode: ADIStaticRows, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr > 1e-10 {
		t.Fatalf("static-rows ADI deviates from serial by %g", res.MaxErr)
	}
}

func TestADIModesAgree(t *testing.T) {
	var sums []float64
	for _, mode := range []ADIMode{ADIDynamic, ADIStaticCols, ADIStaticRows} {
		res, err := RunADI(ADIConfig{NX: 20, NY: 20, Iters: 2, P: 4, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sums = append(sums, res.Checksum)
	}
	for i := 1; i < len(sums); i++ {
		d := sums[i] - sums[0]
		if d < 0 {
			d = -d
		}
		if d > 1e-8 {
			t.Fatalf("checksums diverge: %v", sums)
		}
	}
}

func TestADIScheduleCacheWarm(t *testing.T) {
	res, err := RunADI(ADIConfig{NX: 16, NY: 16, Iters: 4, P: 2, Mode: ADIDynamic})
	if err != nil {
		t.Fatal(err)
	}
	// 7 redistributions x 2 ranks = 14 lookups over 2 distinct transitions
	// x 2 ranks = 4 misses.
	if res.CacheMisses != 4 {
		t.Fatalf("cache misses = %d, want 4", res.CacheMisses)
	}
	if res.CacheHits != 10 {
		t.Fatalf("cache hits = %d, want 10", res.CacheHits)
	}
}

func TestADIDynamicConfinesCommunicationClaim(t *testing.T) {
	// Claim C2: with the dynamic strategy all communication is confined
	// to the redistribution; with enough iterations the static pipeline
	// sends far more messages.
	dyn, err := RunADI(ADIConfig{NX: 64, NY: 64, Iters: 4, P: 4, Mode: ADIDynamic})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunADI(ADIConfig{NX: 64, NY: 64, Iters: 4, P: 4, Mode: ADIStaticCols, ChunkRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.RedistMsgs+dyn.SweepMsgs == 0 || st.SweepMsgs == 0 {
		t.Fatal("traffic accounting broken")
	}
	if st.SweepMsgs <= dyn.RedistMsgs {
		t.Fatalf("expected static pipeline (chunked) to send more messages: static %d vs dynamic %d",
			st.SweepMsgs, dyn.RedistMsgs)
	}
}

func TestPICConservationAndBalance(t *testing.T) {
	cfg := PICConfig{NCell: 64, Steps: 30, P: 4, DriftFrac: 0.3, InitPerCell: 50, WorkPerParticle: 4}
	static, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rebalance = true
	reb, err := RunPIC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// conservation
	if static.ParticlesStart != static.ParticlesEnd {
		t.Fatalf("static run lost particles: %v -> %v", static.ParticlesStart, static.ParticlesEnd)
	}
	if reb.ParticlesStart != reb.ParticlesEnd {
		t.Fatalf("rebalanced run lost particles: %v -> %v", reb.ParticlesStart, reb.ParticlesEnd)
	}
	// claim C3: drift degrades the static distribution's balance; the
	// B_BLOCK rebalancing keeps it near 1.
	if static.FinalImbalance < 1.5 {
		t.Fatalf("static imbalance should degrade, got %v", static.FinalImbalance)
	}
	if reb.FinalImbalance >= static.FinalImbalance {
		t.Fatalf("rebalancing did not help: %v vs %v", reb.FinalImbalance, static.FinalImbalance)
	}
	if reb.Redistributions == 0 {
		t.Fatal("rebalanced run never redistributed")
	}
	if static.Redistributions != 0 {
		t.Fatal("static run should never redistribute")
	}
}

func TestPICImbalanceSeriesMonotoneStatic(t *testing.T) {
	res, err := RunPIC(PICConfig{NCell: 32, Steps: 20, P: 4, DriftFrac: 0.4, InitPerCell: 40, WorkPerParticle: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ImbalanceSeries[19] < res.ImbalanceSeries[0] {
		t.Fatalf("static drift should increase imbalance: %v", res.ImbalanceSeries)
	}
	if res.PeakImbalance < res.MeanImbalance {
		t.Fatal("peak < mean?")
	}
}

func TestSmoothingMessageCounts(t *testing.T) {
	// Claim C1 exactly: columns -> 2 messages of 8N bytes; 2-D blocks on
	// q×q -> 4 messages of 8N/q bytes (per interior processor per step).
	const n, p = 64, 4
	cols, err := RunSmoothing(SmoothConfig{N: n, Steps: 3, P: p, Mode: SmoothColumns})
	if err != nil {
		t.Fatal(err)
	}
	if cols.MsgsPerProcStep != 2 {
		t.Fatalf("columns msgs/proc/step = %v, want 2", cols.MsgsPerProcStep)
	}
	if cols.BytesPerProcStep != 2*8*n {
		t.Fatalf("columns bytes/proc/step = %v, want %d", cols.BytesPerProcStep, 2*8*n)
	}
	// The "4 messages" count is for an *interior* processor, so the 2-D
	// case needs q >= 3 (a 2x2 arrangement has only corner processors).
	const n2, p2, q2 = 63, 9, 3
	blk, err := RunSmoothing(SmoothConfig{N: n2, Steps: 3, P: p2, Mode: SmoothBlock2D})
	if err != nil {
		t.Fatal(err)
	}
	if blk.MsgsPerProcStep != 4 {
		t.Fatalf("block msgs/proc/step = %v, want 4", blk.MsgsPerProcStep)
	}
	if blk.BytesPerProcStep != 4*8*n2/q2 {
		t.Fatalf("block bytes/proc/step = %v, want %d", blk.BytesPerProcStep, 4*8*n2/q2)
	}
}

func TestSmoothingResultsMatchSerial(t *testing.T) {
	for _, mode := range []SmoothMode{SmoothColumns, SmoothBlock2D} {
		res, err := RunSmoothing(SmoothConfig{N: 32, Steps: 4, P: 4, Mode: mode, Validate: true})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.MaxErr > 1e-12 {
			t.Fatalf("%v deviates from serial by %g", mode, res.MaxErr)
		}
	}
}

func TestSmoothingDistributionsAgree(t *testing.T) {
	a, err := RunSmoothing(SmoothConfig{N: 48, Steps: 5, P: 4, Mode: SmoothColumns})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSmoothing(SmoothConfig{N: 48, Steps: 5, P: 4, Mode: SmoothBlock2D})
	if err != nil {
		t.Fatal(err)
	}
	d := a.Checksum - b.Checksum
	if d < 0 {
		d = -d
	}
	if d > 1e-9 {
		t.Fatalf("checksums differ: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestChooseSmoothingDistCrossover(t *testing.T) {
	// §4: "the ratio N/p will determine the most appropriate
	// distribution".  High startup cost favours fewer messages
	// (columns); high bandwidth cost favours smaller messages (blocks).
	alpha, beta := 1e-4, 1e-9
	if ChooseSmoothingDist(64, 16, alpha, beta) != SmoothColumns {
		t.Error("small N: columns (2 msgs) should win on startup cost")
	}
	if ChooseSmoothingDist(1<<20, 16, alpha, beta) != SmoothBlock2D {
		t.Error("huge N: blocks (smaller messages) should win on volume")
	}
	// non-square processor count cannot use the 2-D arrangement
	if ChooseSmoothingDist(1<<20, 6, alpha, beta) != SmoothColumns {
		t.Error("non-square P must fall back to columns")
	}
	// crossover is monotone in N
	prev := ChooseSmoothingDist(2, 16, alpha, beta)
	switched := 0
	for n := 4; n <= 1<<21; n *= 2 {
		cur := ChooseSmoothingDist(n, 16, alpha, beta)
		if cur != prev {
			switched++
			prev = cur
		}
	}
	if switched != 1 {
		t.Errorf("expected exactly one crossover, saw %d", switched)
	}
}

// TestSmoothModelMatchesMeasuredTraffic: the cost ChooseSmoothingDist
// decides with is the traffic the run then produces — α per message and β
// per byte of the busiest processor's step, at every square P including
// the 2×2 arrangement, where no processor has four neighbours.
func TestSmoothModelMatchesMeasuredTraffic(t *testing.T) {
	const n, alpha, beta = 48, 1e-4, 1e-8 // n divides by q = 2, 3 and 4
	for _, p := range []int{4, 9, 16} {
		cols, blk := SmoothModelCost(n, p, 1, alpha, beta)
		for mode, model := range map[SmoothMode]float64{SmoothColumns: cols, SmoothBlock2D: blk} {
			res, err := RunSmoothing(SmoothConfig{N: n, Steps: 3, P: p, Mode: mode})
			if err != nil {
				t.Fatalf("P=%d %v: %v", p, mode, err)
			}
			measured := alpha*res.MsgsPerProcStep + beta*res.BytesPerProcStep
			if math.Abs(model-measured) > 1e-12*measured {
				t.Errorf("P=%d %v: model %g s, measured %v msgs + %v bytes = %g s",
					p, mode, model, res.MsgsPerProcStep, res.BytesPerProcStep, measured)
			}
		}
	}
	// Same two messages, half the bytes: on 4 processors blocks win at
	// every size as soon as bytes cost anything.
	for n := 4; n <= 1<<20; n = n*3/2 + 1 {
		for _, beta := range []float64{1e-12, 1e-8, 1e-3} {
			if ChooseSmoothingDist(n, 4, alpha, beta) != SmoothBlock2D {
				t.Fatalf("N=%d P=4 beta=%g: chose columns", n, beta)
			}
		}
	}
}

func TestRedistCost(t *testing.T) {
	res, err := RunRedistCost(RedistCostConfig{
		N0: 128, P: 4, Rounds: 3,
		From: []dist.DimSpec{dist.BlockDim()},
		To:   []dist.DimSpec{dist.CyclicDim(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ValuesPreserved {
		t.Fatal("redistribution corrupted values")
	}
	if res.BytesPerRound == 0 || res.MsgsPerRound == 0 {
		t.Fatal("no traffic measured")
	}
	// BLOCK -> CYCLIC moves 3/4 of the data on 4 procs: 128*8*3/4 = 768B
	want := float64(128 * 8 * 3 / 4)
	if res.BytesPerRound != want {
		t.Fatalf("bytes/round = %v, want %v", res.BytesPerRound, want)
	}
	if res.CacheMisses == 0 || res.CacheHits == 0 {
		t.Fatal("schedule cache not exercised")
	}
}

func TestRedistCostGrowsWithN(t *testing.T) {
	small, err := RunRedistCost(RedistCostConfig{N0: 64, P: 4, Rounds: 2,
		From: []dist.DimSpec{dist.BlockDim()}, To: []dist.DimSpec{dist.CyclicDim(1)}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunRedistCost(RedistCostConfig{N0: 1024, P: 4, Rounds: 2,
		From: []dist.DimSpec{dist.BlockDim()}, To: []dist.DimSpec{dist.CyclicDim(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if big.BytesPerRound <= small.BytesPerRound {
		t.Fatal("redistribution volume should grow with N")
	}
}

func TestADIModelTimeCrossover(t *testing.T) {
	// Claim C4: dynamic wins when per-phase locality outweighs the
	// DISTRIBUTE cost.  Under a high-latency model the chunked static
	// pipeline (many small messages) is modeled slower than the dynamic
	// version (few large transfers).
	alpha, beta := 5e-4, 2e-9
	dyn, err := RunADI(ADIConfig{NX: 128, NY: 128, Iters: 3, P: 4, Mode: ADIDynamic, Alpha: alpha, Beta: beta, ChunkRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunADI(ADIConfig{NX: 128, NY: 128, Iters: 3, P: 4, Mode: ADIStaticCols, Alpha: alpha, Beta: beta, ChunkRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ModelTime == 0 || st.ModelTime == 0 {
		t.Fatal("cost model inactive")
	}
	if dyn.ModelTime >= st.ModelTime {
		t.Fatalf("under high latency dynamic should win: dyn %.6fs vs static %.6fs", dyn.ModelTime, st.ModelTime)
	}
}

// mangleTag is a transport whose frames on one tag are rewritten on the
// way out — a peer that sends a short or lying frame.
type mangleTag struct {
	msg.Transport
	tag    int
	mangle func([]byte) []byte
}

func (t mangleTag) Endpoint(r int) msg.Endpoint { return mangleEP{t.Transport.Endpoint(r), t} }

type mangleEP struct {
	msg.Endpoint
	t mangleTag
}

func (e mangleEP) Send(to, tag int, data []byte) error {
	if tag == e.t.tag {
		data = e.t.mangle(data)
	}
	return e.Endpoint.Send(to, tag, data)
}

// TestPICDriftFrameChecked: a drift frame shorter than [first cell, k
// cells], or one whose first cell is not the receiver's lo−k, is an error
// of the run that names sender and receiver — not a panic, not a ghost
// read from the wrong cells.
func TestPICDriftFrameChecked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
		want   string
	}{
		{"truncated", func(b []byte) []byte { return b[:8] }, "has 8 bytes, want 8·(k+1) = 32"},
		{"wrong first cell", func(b []byte) []byte {
			b = append([]byte(nil), b...)
			msg.PutFloat64(b, 0, 1)
			return b
		}, "starts at cell 1, want"},
	} {
		err := onBlockCount(mangleTag{msg.NewChanTransport(4), driftTag, tc.mangle}, 16, 10, func(ctx *machine.Ctx, count *core.Array) error {
			dr := drift{frac: 0.5}
			return dr.step(ctx, count, 3) // k = 3 of each rank's 4 cells
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !regexp.MustCompile(`rank \d.* from rank \d`).MatchString(err.Error()) ||
			strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: err = %v, want %q naming both ranks, no panic", tc.name, err, tc.want)
		}
	}
}

// TestPipelineFrameChecked: a forward frame of the static ADI's pipeline
// one value short is an error of the run that names the receiver, the
// sender, the tag and both sizes — not a panic.
func TestPipelineFrameChecked(t *testing.T) {
	m := machine.New(4, machine.WithTransport(mangleTag{msg.NewChanTransport(4), fwdTag, func(b []byte) []byte { return b[:len(b)-8] }}))
	defer m.Close()
	eng := core.NewEngine(m)
	err := m.Run(func(ctx *machine.Ctx) error {
		v, err := eng.Declare(ctx, core.Decl{Name: "V", Domain: index.Dim(16, 16), Static: &core.DistSpec{Type: colsType()}})
		if err != nil {
			return err
		}
		v.FillFunc(ctx, func(p index.Point) float64 { return float64(p[0] - p[1]) })
		var lf lineFactor
		return pipelinedSweep(ctx, v, 1, 4, &lf)
	})
	if err == nil || !regexp.MustCompile(`rank \d.* from rank \d on tag 9001 has 24 bytes, want 32`).MatchString(err.Error()) ||
		strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want the receiver, the sender, tag 9001 and 24 bytes of 32 named, no panic", err)
	}
}

func TestAppsOverTCP(t *testing.T) {
	adi, err := RunADI(ADIConfig{NX: 24, NY: 24, Iters: 2, P: 3, Mode: ADIDynamic, Validate: true, Runtime: Runtime{UseTCP: true}})
	if err != nil {
		t.Fatal(err)
	}
	if adi.MaxErr > 1e-10 {
		t.Fatalf("TCP ADI deviates by %g", adi.MaxErr)
	}
	sm, err := RunSmoothing(SmoothConfig{N: 32, Steps: 2, P: 4, Mode: SmoothColumns, Validate: true, Runtime: Runtime{UseTCP: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sm.MaxErr > 1e-12 {
		t.Fatalf("TCP smoothing deviates by %g", sm.MaxErr)
	}
	pic, err := RunPIC(PICConfig{NCell: 32, Steps: 10, P: 4, Rebalance: true, WorkPerParticle: 2, Runtime: Runtime{UseTCP: true}})
	if err != nil {
		t.Fatal(err)
	}
	if pic.ParticlesStart != pic.ParticlesEnd {
		t.Fatal("TCP PIC lost particles")
	}
}
