package apps

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/sem"
)

// checked parses and checks a listing.
func checked(t *testing.T, src string) *sem.Unit {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unit := sem.Analyze(prog)
	if unit.HasErrors() {
		t.Fatalf("sem: %v", unit.Diags)
	}
	return unit
}

// fig2 parses Fig2Source and returns it with an interpreter over m that
// runs RegisterFig2's helper procedures.
func fig2(t *testing.T, m *machine.Machine) (*interp.Interp, *sem.Unit) {
	t.Helper()
	in := interp.New(core.NewEngine(m))
	RegisterFig2(in)
	return in, checked(t, Fig2Source)
}

// runWhole executes the whole listing on the calling processor, outside
// the step loop.
func runWhole(in *interp.Interp, ctx *machine.Ctx, unit *sem.Unit) (*interp.State, error) {
	st, err := in.NewState(ctx, unit)
	if err != nil {
		return nil, err
	}
	return st, st.Run(unit.Prog.Stmts)
}

// TestPICFig2MatchesRunPIC: the interpreted Figure 2 listing computes
// what RunPIC computes on 1 to 7 ranks, on chan and TCP — the gathered
// COUNT element by element, the FIELD sum and the number of DISTRIBUTEs,
// bit for bit — and the particles pile up enough to redistribute.
func TestPICFig2MatchesRunPIC(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for p := 1; p <= 7; p++ {
			t.Run(fmt.Sprintf("tcp=%v/P=%d", tcp, p), func(t *testing.T) {
				rt := Runtime{UseTCP: tcp}
				want, err := RunPIC(PICConfig{NCell: 128, Steps: 60, P: p, Rebalance: true, Runtime: rt})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewMachine(p, 0, 0, rt)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				in, unit := fig2(t, m)
				var count []float64
				var fieldSum float64
				var distributes int
				if err := m.Run(func(ctx *machine.Ctx) error {
					st, err := runWhole(in, ctx, unit)
					if err != nil {
						return err
					}
					c, _ := st.Array("COUNT")
					f, _ := st.Array("FIELD")
					counts, err := c.GatherTo(ctx, 0)
					if err != nil {
						return err
					}
					fields, err := f.GatherTo(ctx, 0)
					if ctx.Rank() == 0 {
						count, fieldSum, distributes = counts, sum(fields), f.Epoch(0)
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if len(count) != len(want.Counts) {
					t.Fatalf("COUNT has %d cells, RunPIC %d", len(count), len(want.Counts))
				}
				for i := range count {
					if math.Float64bits(count[i]) != math.Float64bits(want.Counts[i]) {
						t.Fatalf("COUNT(%d) = %v, RunPIC %v", i+1, count[i], want.Counts[i])
					}
				}
				if math.Float64bits(fieldSum) != math.Float64bits(want.FieldChecksum) {
					t.Errorf("FIELD sum %v, RunPIC %v", fieldSum, want.FieldChecksum)
				}
				if distributes != want.Redistributions {
					t.Errorf("%d DISTRIBUTEs, RunPIC %d", distributes, want.Redistributions)
				}
				if p > 1 && distributes < 2 {
					t.Errorf("%d DISTRIBUTEs: the listing never rebalanced", distributes)
				}
			})
		}
	}
}

// dropTag loses every frame on tag on the wire: the sender sees a
// successful send, the receiver never gets the frame.
type dropTag struct {
	msg.Transport
	tag int
}

func (t dropTag) Endpoint(r int) msg.Endpoint { return dropEP{t.Transport.Endpoint(r), t.tag} }

type dropEP struct {
	msg.Endpoint
	tag int
}

func (e dropEP) Send(to, tag int, data []byte) error {
	if tag == e.tag {
		return nil
	}
	return e.Endpoint.Send(to, tag, data)
}

// TestPICFig2LostDriftFrameTimesOut: the interpreted listing's drift
// exchange runs under the machine's retry policy like every other
// receive, so a lost frame ends the program with an error within the
// retry budget instead of leaving the receiver blocked for good.
func TestPICFig2LostDriftFrameTimesOut(t *testing.T) {
	pol := msg.RetryPolicy{Timeout: 50 * time.Millisecond, Retries: 1}
	m := machine.New(4, machine.WithTransport(dropTag{msg.NewChanTransport(4), driftTag}), machine.WithRetry(pol))
	defer m.Close()
	in, unit := fig2(t, m)
	errs := make([]error, 4)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(ctx *machine.Ctx) error {
			_, err := runWhole(in, ctx, unit)
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
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "pic-drift: rank 1: recv from 0") {
		t.Fatalf("rank 1: err = %v, want its drift receive from rank 0 named", errs[1])
	}
}
