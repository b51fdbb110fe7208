package trace

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
)

// PhaseStat aggregates one named phase-like span (user phase, DISTRIBUTE
// of one array, ghost exchange, declaration) over all processors and all
// of its dynamic instances.
//
// Phases nest (a ghost exchange inside a user phase reports under both
// rows); messages and barrier waits are charged only to the *innermost*
// enclosing phase-like span, so the message columns partition the
// traffic while the time columns describe each span as a whole.
type PhaseStat struct {
	// Cat and Name identify the span.
	Cat, Name string
	// Count is the number of times the phase ran (per-processor maximum;
	// in an SPMD program every processor enters each phase equally often).
	Count int
	// Msgs and Bytes count data messages (payload > 0) sent inside the
	// phase, summed over all processors.
	Msgs, Bytes int64
	// VTime is the per-processor maximum of virtual α/β seconds spent
	// inside the phase (0 without a cost model).
	VTime float64
	// BarrierWait is the per-processor maximum of virtual seconds spent
	// waiting in barriers inside the phase.
	BarrierWait float64
	// Wall is the per-processor maximum of wall time spent in the phase.
	Wall time.Duration
}

// Summary is the per-phase cost account of a recorded trace.
type Summary struct {
	// Phases lists phase-like spans in order of first appearance
	// (rank 0's order first).
	Phases []PhaseStat
	// UnphasedMsgs / UnphasedBytes count data messages sent outside any
	// phase-like span.
	UnphasedMsgs, UnphasedBytes int64
	// TotalMsgs / TotalBytes count all data messages in the trace.
	TotalMsgs, TotalBytes int64
}

// perRank accumulates one rank's contribution to one phase.
type perRank struct {
	count       int
	msgs, bytes int64
	vtime       float64
	barrierWait float64
	wall        time.Duration
}

type openSpan struct {
	cat, name string
	t0        time.Duration
	v0        float64
}

// Summarize walks every processor's timeline and produces the per-phase
// account.  Safe on a nil tracer (returns an empty summary).
func (t *Tracer) Summarize() *Summary {
	s := &Summary{}
	if t == nil {
		return s
	}
	type key struct{ cat, name string }
	order := []key{}
	acc := map[key]map[int]*perRank{} // phase -> rank -> stats
	get := func(k key, rank int) *perRank {
		m, ok := acc[k]
		if !ok {
			m = map[int]*perRank{}
			acc[k] = m
			order = append(order, k)
		}
		r, ok := m[rank]
		if !ok {
			r = &perRank{}
			m[rank] = r
		}
		return r
	}

	for rank := 0; rank < t.np; rank++ {
		var stack []openSpan
		// innermost returns the deepest attributable open span, or nil.
		innermost := func() *openSpan {
			for i := len(stack) - 1; i >= 0; i-- {
				if attributable(stack[i].cat) {
					return &stack[i]
				}
			}
			return nil
		}
		for _, e := range t.Events(rank) {
			switch e.Kind {
			case KindBegin:
				stack = append(stack, openSpan{cat: e.Cat, name: e.Name, t0: e.T, v0: e.V})
			case KindEnd:
				// pop the innermost span matching (cat, name); tolerate
				// mismatched user phase annotations by scanning down.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].cat != e.Cat || stack[i].name != e.Name {
						continue
					}
					sp := stack[i]
					stack = append(stack[:i], stack[i+1:]...)
					if e.Cat == CatCollective && e.Name == "barrier" {
						if in := innermost(); in != nil {
							get(key{in.cat, in.name}, rank).barrierWait += e.V - sp.v0
						}
					}
					if attributable(sp.cat) {
						r := get(key{sp.cat, sp.name}, rank)
						r.count++
						r.wall += e.T - sp.t0
						r.vtime += e.V - sp.v0
					}
					break
				}
			case KindInstant:
				if e.Cat == CatMsg && e.Name == "send" && e.Bytes > 0 {
					s.TotalMsgs++
					s.TotalBytes += e.Bytes
					if in := innermost(); in != nil {
						r := get(key{in.cat, in.name}, rank)
						r.msgs++
						r.bytes += e.Bytes
					} else {
						s.UnphasedMsgs++
						s.UnphasedBytes += e.Bytes
					}
				}
			}
		}
	}

	for _, k := range order {
		ps := PhaseStat{Cat: k.cat, Name: k.name}
		for _, r := range acc[k] {
			ps.Msgs += r.msgs
			ps.Bytes += r.bytes
			if r.count > ps.Count {
				ps.Count = r.count
			}
			if r.vtime > ps.VTime {
				ps.VTime = r.vtime
			}
			if r.barrierWait > ps.BarrierWait {
				ps.BarrierWait = r.barrierWait
			}
			if r.wall > ps.Wall {
				ps.Wall = r.wall
			}
		}
		s.Phases = append(s.Phases, ps)
	}
	return s
}

// Phase returns the stats of the named phase-like span, if present.
func (s *Summary) Phase(name string) (PhaseStat, bool) {
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStat{}, false
}

// String renders the account as a plain-text table: one row per phase
// with entry count, data messages, payload bytes, virtual α/β time,
// barrier wait, and wall time (the per-processor maxima for the time
// columns).
func (s *Summary) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tcount\tmsgs\tbytes\tαβ-time\tbarrier-wait\twall")
	for _, p := range s.Phases {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\t%v\n",
			p.Name, p.Count, p.Msgs, p.Bytes, fmtSec(p.VTime), fmtSec(p.BarrierWait), p.Wall.Round(time.Microsecond))
	}
	if s.UnphasedMsgs > 0 {
		fmt.Fprintf(w, "(unphased)\t\t%d\t%d\t\t\t\n", s.UnphasedMsgs, s.UnphasedBytes)
	}
	fmt.Fprintf(w, "total\t\t%d\t%d\t\t\t\n", s.TotalMsgs, s.TotalBytes)
	w.Flush()
	return b.String()
}

func fmtSec(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3gms", v*1e3)
}
