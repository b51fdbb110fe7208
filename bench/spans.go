package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// A span is one timed call from a step replica into a layer.  Spans are
// recorded from the benchmark's own files, around the calls into each
// layer; nothing inside internal/ is instrumented.
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same rank's spans of this round, -1 for a root
}

// rankSpans is one rank's recording; each SPMD goroutine writes only its
// own, so recording takes no lock.  The padding keeps neighbouring ranks'
// slice headers off one cache line.
type rankSpans struct {
	spans []span
	open  []int
	_     [64]byte
}

// recorder keeps spans in memory.  A nil recorder records nothing, which
// is the spans-off replica.
type recorder struct {
	t0    time.Time
	round int
	ranks [nProcs]rankSpans
	// kept are the spans of the round endRound was last told to keep, and
	// self their self times (span minus its children) by name, summed
	// over ranks.
	kept []span
	self map[string]int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span on rank's timeline, child of the innermost open one.
func (r *recorder) begin(rank int, name string) int {
	if r == nil {
		return 0
	}
	rs := &r.ranks[rank]
	parent := -1
	if n := len(rs.open); n > 0 {
		parent = rs.open[n-1]
	}
	id := len(rs.spans)
	rs.spans = append(rs.spans, span{Name: name, Rank: rank, Round: r.round, Start: int64(time.Since(r.t0)), Parent: parent})
	rs.open = append(rs.open, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(rank, id int) {
	if r == nil {
		return
	}
	rs := &r.ranks[rank]
	rs.spans[id].End = int64(time.Since(r.t0))
	rs.open = rs.open[:len(rs.open)-1]
}

// endRound closes the round just recorded: with keep its spans and their
// self times replace the kept ones, otherwise they are dropped.  Called
// between rounds, when no rank is running.
func (r *recorder) endRound(keep bool) {
	if keep {
		r.kept, r.self = r.kept[:0], map[string]int64{}
	}
	for k := range r.ranks {
		rs := &r.ranks[k]
		if keep {
			child := make([]int64, len(rs.spans))
			for _, s := range rs.spans {
				if s.Parent >= 0 {
					child[s.Parent] += s.End - s.Start
				}
			}
			for i, s := range rs.spans {
				r.self[s.Name] += s.End - s.Start - child[i]
			}
			r.kept = append(r.kept, rs.spans...)
		}
		rs.spans = rs.spans[:0]
	}
	r.round++
}

// layerMS returns the kept round's self time of every span whose name is
// in the layer (name or "layer.*"), in ms per step per rank.
func (r *recorder) layerMS(layer string, steps int) float64 {
	var ns int64
	for name, v := range r.self {
		if name == layer || strings.HasPrefix(name, layer+".") {
			ns += v
		}
	}
	return float64(ns) / 1e6 / float64(nProcs) / float64(steps)
}

// writeTrace writes the kept round's spans, rank by rank in start order.
func (r *recorder) writeTrace(path, workload string, p params) error {
	doc := struct {
		Workload string `json:"workload"`
		Steps    int    `json:"steps"`
		Ranks    int    `json:"ranks"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, p.steps, nProcs, "the fastest traced replica round; parent indexes the same rank's spans in order", r.kept}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
