package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tr.SetClockSource(func(int) float64 { return 0 })
	sp := tr.BeginSpan(0, CatPhase, "p")
	sp.End()
	tr.EndSpan(0, CatPhase, "p")
	tr.Send(0, 1, 8)
	tr.Recv(1, 0, 8)
	tr.Instant(0, CatDistribute, "sched:hit", -1, 0)
	if got := tr.Events(0); got != nil {
		t.Fatalf("events on nil tracer: %v", got)
	}
	if s := tr.Summarize(); len(s.Phases) != 0 || s.TotalMsgs != 0 {
		t.Fatalf("non-empty summary from nil tracer: %+v", s)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var v []any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("nil-tracer JSON invalid: %v", err)
	}
}

func TestSummaryAttribution(t *testing.T) {
	tr := New(2)
	clock := []float64{0, 0}
	tr.SetClockSource(func(r int) float64 { return clock[r] })

	// rank 0: phase "sweep" containing a DISTRIBUTE span with 2 sends,
	// plus 1 send outside any phase.
	ph := tr.BeginSpan(0, CatPhase, "sweep")
	d := tr.BeginSpan(0, CatDistribute, "DISTRIBUTE V")
	tr.Send(0, 1, 64)
	tr.Send(0, 1, 32)
	clock[0] = 0.5
	d.End()
	clock[0] = 0.75
	ph.End()
	tr.Send(0, 1, 8) // unphased

	// rank 1: a barrier inside "sweep" with virtual wait 0.25s.
	ph1 := tr.BeginSpan(1, CatPhase, "sweep")
	bar := tr.BeginSpan(1, CatCollective, "barrier")
	clock[1] = 0.25
	bar.End()
	ph1.End()

	s := tr.Summarize()
	dv, ok := s.Phase("DISTRIBUTE V")
	if !ok {
		t.Fatalf("missing DISTRIBUTE V phase: %+v", s.Phases)
	}
	if dv.Msgs != 2 || dv.Bytes != 96 {
		t.Fatalf("DISTRIBUTE V msgs/bytes = %d/%d, want 2/96", dv.Msgs, dv.Bytes)
	}
	if dv.VTime != 0.5 {
		t.Fatalf("DISTRIBUTE V vtime = %v, want 0.5", dv.VTime)
	}
	sw, ok := s.Phase("sweep")
	if !ok {
		t.Fatal("missing sweep phase")
	}
	// messages charged to the innermost span only
	if sw.Msgs != 0 {
		t.Fatalf("sweep msgs = %d, want 0 (inner DISTRIBUTE owns them)", sw.Msgs)
	}
	if sw.VTime != 0.75 {
		t.Fatalf("sweep vtime = %v, want 0.75 (rank-max)", sw.VTime)
	}
	if sw.BarrierWait != 0.25 {
		t.Fatalf("sweep barrier wait = %v, want 0.25", sw.BarrierWait)
	}
	if s.UnphasedMsgs != 1 || s.UnphasedBytes != 8 {
		t.Fatalf("unphased = %d/%d, want 1/8", s.UnphasedMsgs, s.UnphasedBytes)
	}
	if s.TotalMsgs != 3 || s.TotalBytes != 104 {
		t.Fatalf("total = %d/%d, want 3/104", s.TotalMsgs, s.TotalBytes)
	}
	if sw.Count != 1 || dv.Count != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", sw.Count, dv.Count)
	}
	// zero-byte messages (barrier traffic) are not data messages
	tr.Send(0, 1, 0)
	if s2 := tr.Summarize(); s2.TotalMsgs != 3 {
		t.Fatalf("zero-byte send counted as data message")
	}
}

func TestSummaryToleratesMismatchedPhases(t *testing.T) {
	tr := New(1)
	tr.BeginSpan(0, CatPhase, "a")
	tr.BeginSpan(0, CatPhase, "b")
	tr.EndSpan(0, CatPhase, "a") // out of order: closes "a", leaves "b" open
	tr.Send(0, 0, 16)            // attributed to still-open "b"
	s := tr.Summarize()
	b, ok := s.Phase("b")
	if !ok || b.Msgs != 1 {
		t.Fatalf("open phase b should own the message: %+v", s.Phases)
	}
	if a, _ := s.Phase("a"); a.Count != 1 {
		t.Fatalf("phase a should have closed once: %+v", a)
	}
}

func TestSummaryPhaseByRank(t *testing.T) {
	tr := New(3)
	clock := []float64{0, 0, 0}
	tr.SetClockSource(func(r int) float64 { return clock[r] })

	// rank 0: "sweep" with two sends and 0.1s of virtual time.
	ph0 := tr.BeginSpan(0, CatPhase, "sweep")
	tr.Send(0, 1, 64)
	tr.Send(0, 2, 32)
	clock[0] = 0.1
	ph0.End()

	// rank 1: "sweep" spent mostly waiting in a barrier (0.4s of 0.5s).
	ph1 := tr.BeginSpan(1, CatPhase, "sweep")
	clock[1] = 0.1
	bar := tr.BeginSpan(1, CatCollective, "barrier")
	clock[1] = 0.5
	bar.End()
	ph1.End()

	// rank 2 is the straggler: 0.5s of virtual work, no barrier wait.
	ph2 := tr.BeginSpan(2, CatPhase, "sweep")
	clock[2] = 0.5
	ph2.End()

	s := tr.Summarize()
	// The phase row is exactly the maxima/sums over the per-rank shares.
	sw, ok := s.Phase("sweep")
	if !ok {
		t.Fatal("missing sweep phase")
	}
	if sw.Msgs != 2 || sw.Bytes != 96 || sw.VTime != 0.5 || sw.BarrierWait != 0.4 {
		t.Fatalf("sweep aggregate = %+v, want msgs 2 / bytes 96 / vtime 0.5 / wait 0.4", sw)
	}
}

func TestWriteJSONIsChromeLoadable(t *testing.T) {
	tr := New(2)
	tr.SetClockSource(func(int) float64 { return 1.5 })
	sp := tr.BeginSpan(0, CatStmt, `DISTRIBUTE "V"`) // quoting-hostile name
	tr.Send(0, 1, 128)
	tr.Recv(1, 0, 128)
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	phases := map[string]int{}
	for _, e := range events {
		phases[e["ph"].(string)]++
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", e)
		}
		if e["ph"] == "i" {
			args := e["args"].(map[string]any)
			if args["bytes"].(float64) != 128 {
				t.Fatalf("message args wrong: %v", e)
			}
		}
	}
	if phases["B"] != 1 || phases["E"] != 1 || phases["i"] != 2 {
		t.Fatalf("phase mix = %v", phases)
	}
}

func TestEventTimesMonotonic(t *testing.T) {
	tr := New(1)
	tr.Send(0, 0, 1)
	time.Sleep(time.Millisecond)
	tr.Send(0, 0, 1)
	ev := tr.Events(0)
	if ev[1].T <= ev[0].T {
		t.Fatalf("timestamps not increasing: %v then %v", ev[0].T, ev[1].T)
	}
}
