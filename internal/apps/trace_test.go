package apps

import (
	"testing"

	"repro/internal/trace"
)

// openSpans replays a rank's event stream, calling visit for every data
// send (CatMsg "send" with a positive payload) with the stack of spans
// open at that moment.
func replaySends(events []trace.Event, visit func(stack []trace.Event)) {
	var stack []trace.Event
	for _, e := range events {
		switch e.Kind {
		case trace.KindBegin:
			stack = append(stack, e)
		case trace.KindEnd:
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].Cat == e.Cat && stack[i].Name == e.Name {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		case trace.KindInstant:
			if e.Cat == trace.CatMsg && e.Name == "send" && e.Bytes > 0 {
				visit(stack)
			}
		}
	}
}

func spanOpen(stack []trace.Event, cat, name string) bool {
	for _, s := range stack {
		if s.Cat == cat && (name == "" || s.Name == name) {
			return true
		}
	}
	return false
}

// TestADIDynamicTraceConfinement is claim C2 as a trace property: in the
// dynamic ADI every data message sent during the "iterate" phase happens
// inside a DISTRIBUTE span — the sweeps themselves are communication-free.
// The static-columns run is the control: its pipelined y-sweep sends data
// during "iterate" with no DISTRIBUTE open.
func TestADIDynamicTraceConfinement(t *testing.T) {
	const np = 4
	tr := trace.New(np)
	if _, err := RunADI(ADIConfig{NX: 32, NY: 32, Iters: 3, P: np, Mode: ADIDynamic, Runtime: Runtime{Tracer: tr}}); err != nil {
		t.Fatal(err)
	}
	inIterate, escaped := 0, 0
	for rank := 0; rank < np; rank++ {
		replaySends(tr.Events(rank), func(stack []trace.Event) {
			if !spanOpen(stack, trace.CatPhase, "iterate") {
				return
			}
			inIterate++
			if !spanOpen(stack, trace.CatDistribute, "") {
				escaped++
			}
		})
	}
	if inIterate == 0 {
		t.Fatal("no data sends recorded during the iterate phase — tracer not wired?")
	}
	if escaped != 0 {
		t.Errorf("dynamic ADI: %d of %d iterate-phase data sends outside any DISTRIBUTE span", escaped, inIterate)
	}

	// Control: the static distribution communicates inside the sweep.
	tr2 := trace.New(np)
	if _, err := RunADI(ADIConfig{NX: 32, NY: 32, Iters: 3, P: np, Mode: ADIStaticCols, Runtime: Runtime{Tracer: tr2}}); err != nil {
		t.Fatal(err)
	}
	sweepSends := 0
	for rank := 0; rank < np; rank++ {
		replaySends(tr2.Events(rank), func(stack []trace.Event) {
			if spanOpen(stack, trace.CatPhase, "iterate") && !spanOpen(stack, trace.CatDistribute, "") {
				sweepSends++
			}
		})
	}
	if sweepSends == 0 {
		t.Error("static ADI control: expected pipelined sweep sends outside DISTRIBUTE spans, saw none")
	}
}

// TestSmoothingTraceShape is claim C1's communication shape from the
// per-phase summary: on a 33x33 grid over 9 processors, columns exchange
// 16 boundary messages of 8N = 264 bytes per step while 2-D blocks on a
// 3x3 arrangement exchange 24 messages of 8N/q = 88 bytes per step.  Each
// of U and V is ghost-exchanged once over Steps=2, so each array's ghost
// row carries exactly one step's traffic.
func TestSmoothingTraceShape(t *testing.T) {
	cases := []struct {
		mode        SmoothMode
		msgs        int64
		bytesPerMsg int64
	}{
		{SmoothColumns, 16, 264},
		{SmoothBlock2D, 24, 88},
	}
	for _, tc := range cases {
		tr := trace.New(9)
		if _, err := RunSmoothing(SmoothConfig{N: 33, Steps: 2, P: 9, Mode: tc.mode, Runtime: Runtime{Tracer: tr}}); err != nil {
			t.Fatal(err)
		}
		sum := tr.Summarize()
		if _, ok := sum.Phase("smooth"); !ok {
			t.Fatalf("%v: no \"smooth\" phase in summary", tc.mode)
		}
		for _, arr := range []string{"U", "V"} {
			// One-sided puts are issued (and traced) in the start span;
			// the wait span carries only the completion time.
			ps, ok := sum.Phase("ghost-start " + arr)
			if !ok {
				t.Fatalf("%v: no %q row in summary:\n%s", tc.mode, "ghost-start "+arr, sum.String())
			}
			if ps.Msgs != tc.msgs || ps.Bytes != tc.msgs*tc.bytesPerMsg {
				t.Errorf("%v ghost-start %s: %d msgs / %d bytes, want %d msgs of %d bytes",
					tc.mode, arr, ps.Msgs, ps.Bytes, tc.msgs, tc.bytesPerMsg)
			}
			if _, ok := sum.Phase("ghost-wait " + arr); !ok {
				t.Fatalf("%v: no %q row in summary:\n%s", tc.mode, "ghost-wait "+arr, sum.String())
			}
		}
	}
}

// TestPICTraceConnectClass is §2.3's connect class seen in a trace:
// COUNT is CONNECT(=FIELD), so every DISTRIBUTE of FIELD moves COUNT with
// it, and each rank records exactly one span of each per redistribution.
func TestPICTraceConnectClass(t *testing.T) {
	const np = 4
	tr := trace.New(np)
	res, err := RunPIC(PICConfig{NCell: 64, Steps: 30, P: np, Rebalance: true, DriftFrac: 0.35, Runtime: Runtime{Tracer: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Redistributions == 0 {
		t.Fatal("no redistribution: the run does not exercise the connect class")
	}
	for rank := 0; rank < np; rank++ {
		spans := map[string]int{}
		for _, e := range tr.Events(rank) {
			if e.Kind == trace.KindBegin && e.Cat == trace.CatDistribute {
				spans[e.Name]++
			}
		}
		if f, c := spans["DISTRIBUTE FIELD"], spans["DISTRIBUTE COUNT"]; f != res.Redistributions || c != res.Redistributions {
			t.Errorf("rank %d: %d DISTRIBUTE FIELD and %d DISTRIBUTE COUNT spans, want %d of each",
				rank, f, c, res.Redistributions)
		}
	}
}
