package interp

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/sem"
)

func TestPICDemoEndToEnd(t *testing.T) {
	prog, err := lang.Parse(PICDemoSource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		t.Fatalf("sem: %v", unit.Diags)
	}
	m := machine.New(4)
	defer m.Close()
	e := core.NewEngine(m)
	in := New(e)
	RegisterPICDemo(in)
	var counts []float64
	var epochs int
	var distStr string
	if err := m.Run(func(ctx *machine.Ctx) error {
		st, err := in.Run(ctx, unit)
		if err != nil {
			return err
		}
		field, _ := st.Array("FIELD")
		data, err := field.GatherTo(ctx, 0)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// plane 1 holds the particle counts
			n := field.Domain().Extent(0)
			counts = data[:n]
			epochs = field.Epoch(ctx.Rank())
			distStr = field.DistType(ctx.Rank()).String()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// particle conservation: 128 cells x 64 particles
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total != 128*64 {
		t.Fatalf("particles not conserved: %v", total)
	}
	// the drift piles particles up on the right: the last cell must hold
	// far more than the first
	if counts[len(counts)-1] <= counts[0] {
		t.Fatalf("no drift pile-up: first %v last %v", counts[0], counts[len(counts)-1])
	}
	// rebalancing fired: initial B_BLOCK + at least one re-DISTRIBUTE
	if epochs < 2 {
		t.Fatalf("expected rebalancing redistributions, epoch = %d", epochs)
	}
	if !strings.Contains(distStr, "B_BLOCK") {
		t.Fatalf("final distribution %s is not a general block", distStr)
	}
}

// truncDrift cuts UPDATE_PART's drift frames (tag 9400) to 8 bytes.
type truncDrift struct{ msg.Transport }

func (t truncDrift) Endpoint(r int) msg.Endpoint { return truncDriftEP{t.Transport.Endpoint(r)} }

type truncDriftEP struct{ msg.Endpoint }

func (e truncDriftEP) Send(to, tag int, data []byte) error {
	if tag == 9400 {
		data = data[:min(len(data), 8)]
	}
	return e.Endpoint.Send(to, tag, data)
}

// TestPICDemoTruncatedDriftFrame: a short drift frame fails the program
// with an error naming both ranks instead of panicking the receiver.
func TestPICDemoTruncatedDriftFrame(t *testing.T) {
	prog, err := lang.Parse(PICDemoSource)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	m := machine.New(4, machine.WithTransport(truncDrift{msg.NewChanTransport(4)}))
	defer m.Close()
	in := New(core.NewEngine(m))
	RegisterPICDemo(in)
	err = m.Run(func(ctx *machine.Ctx) error {
		_, err := in.Run(ctx, unit)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "has 8 bytes, want 16") ||
		!regexp.MustCompile(`rank \d.* from rank \d`).MatchString(err.Error()) || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the short frame named by both ranks, no panic", err)
	}
}

// dropDrift loses UPDATE_PART's drift frames (tag 9400) on the wire: the
// sender sees a successful send, the receiver never gets the frame.
type dropDrift struct{ msg.Transport }

func (t dropDrift) Endpoint(r int) msg.Endpoint { return dropDriftEP{t.Transport.Endpoint(r)} }

type dropDriftEP struct{ msg.Endpoint }

func (e dropDriftEP) Send(to, tag int, data []byte) error {
	if tag == 9400 {
		return nil
	}
	return e.Endpoint.Send(to, tag, data)
}

// TestPICDemoLostDriftFrameTimesOut: the drift exchange runs under the
// machine's retry policy like every other receive, so a lost frame ends
// the program with an error within the retry budget instead of leaving
// the receiver blocked for good.
func TestPICDemoLostDriftFrameTimesOut(t *testing.T) {
	prog, err := lang.Parse(PICDemoSource)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	pol := msg.RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 1}
	m := machine.New(4, machine.WithTransport(dropDrift{msg.NewChanTransport(4)}), machine.WithRetry(pol))
	defer m.Close()
	in := New(core.NewEngine(m))
	RegisterPICDemo(in)
	errs := make([]error, 4)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(ctx *machine.Ctx) error {
			_, err := in.Run(ctx, unit)
			errs[ctx.Rank()] = err
			return err
		})
	}()
	// The receiver gives up after pol.MaxWait(); the ranks it leaves in a
	// barrier after one more.  Twice that again is slack for a loaded box.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("the run survived a lost drift frame")
		}
	case <-time.After(4 * pol.MaxWait()):
		t.Fatalf("UPDATE_PART still blocked %v after its drift frame was lost", 4*pol.MaxWait())
	}
	// Rank 1 waits for rank 0's frame.  Whether its own deadline or the
	// abort of a rank that timed out in a barrier ends the wait, it ends
	// in the retried receive, which names the operation.
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "update-part: rank 1: recv from 0") {
		t.Fatalf("rank 1: err = %v, want its drift receive from rank 0 named", errs[1])
	}
}

func TestInterpNoTransfer(t *testing.T) {
	src := `
PARAMETER (N = 8)
REAL B(N) DYNAMIC, DIST(BLOCK)
REAL A(N) DYNAMIC, CONNECT(=B)
DO I = 1, N
  A(I) = I * 10
ENDDO
DISTRIBUTE B :: (CYCLIC) NOTRANSFER (A)
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		t.Fatalf("sem: %v", unit.Diags)
	}
	m := machine.New(2)
	defer m.Close()
	e := core.NewEngine(m)
	in := New(e)
	if err := m.Run(func(ctx *machine.Ctx) error {
		st, err := in.Run(ctx, unit)
		if err != nil {
			return err
		}
		a, _ := st.Array("A")
		b, _ := st.Array("B")
		if !a.DistType(ctx.Rank()).Equal(b.DistType(ctx.Rank())) {
			t.Error("NOTRANSFER must still re-derive the secondary's type")
		}
		// rank 0 owned 1..4 before; under CYCLIC it owns odds. Kept
		// in-place: 1, 3. Elements 5, 7 were not transferred: zero.
		if ctx.Rank() == 0 {
			l := a.Local(ctx)
			if l.At([]int{1}) != 10 || l.At([]int{3}) != 30 {
				t.Error("in-place values lost under NOTRANSFER")
			}
			if l.At([]int{5}) != 0 || l.At([]int{7}) != 0 {
				t.Error("NOTRANSFER moved data")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
