package machine

import (
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/msg"
)

// This file wires the health scorer (internal/health) into the
// machine's existing heartbeat traffic: ranks report completed work via
// Ctx.ReportWork into a machine-shared cumulative log, each heartbeat
// the liveness sender emits carries the reporter's latest cumulative
// counters as its payload, and every heartbeat monitor feeds received
// counters into the shared scorer.  No new goroutines, no new timers,
// no extra messages — the health plane rides entirely on traffic the
// liveness plane already pays for.

// WithHealth runs a per-rank throughput scorer alongside every Run on
// this machine, fed by work reports piggybacked on heartbeat traffic.
// Requires WithLiveness (there is no heartbeat to piggyback on
// otherwise).  Read the scores with Machine.Health.
func WithHealth(hc health.Config) Option {
	return func(c *config) { c.health = &hc }
}

// Health returns the machine's rank-health scorer, or nil without
// WithHealth.
func (m *Machine) Health() *health.Scorer { return m.health }

// DegradedMember is the view rank of the current membership's worst
// member the health scorer classifies Degraded or worse; -1 without a
// scorer or when no member is degraded.
func (c *Ctx) DegradedMember() int {
	if c.m.health == nil {
		return -1
	}
	members := c.Members()
	worst, class, _, ok := c.m.health.Worst(members)
	if ok && class >= health.Degraded {
		for i, p := range members {
			if p == worst {
				return i
			}
		}
	}
	return -1
}

// workLog is the machine-shared cumulative work counters, indexed by
// physical rank.  Counters only grow; the heartbeat sender samples them
// at whatever rate it ticks, and the scorer recovers per-report deltas,
// so sampling rate never skews the score.
type workLog struct {
	mu    sync.Mutex
	seq   []int64
	units []float64
	secs  []float64
}

func newWorkLog(np int) *workLog {
	return &workLog{
		seq:   make([]int64, np),
		units: make([]float64, np),
		secs:  make([]float64, np),
	}
}

func (w *workLog) report(rank int, units, secs float64) {
	w.mu.Lock()
	w.seq[rank]++
	w.units[rank] += units
	w.secs[rank] += secs
	w.mu.Unlock()
}

func (w *workLog) snapshot(rank int) (seq int64, units, secs float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq[rank], w.units[rank], w.secs[rank]
}

// ReportWork folds one completed batch of application work into this
// rank's health report: units is the amount of work (iterations, rows,
// particles — any per-rank-comparable measure) and busy the computation
// time it took.  Report compute time, not barrier waits: the contrast
// between a straggler's cost-per-unit and the median is the signal.
// No-op without WithHealth.
func (c *Ctx) ReportWork(units float64, busy time.Duration) {
	if c.m.work == nil {
		return
	}
	c.m.work.report(c.PhysRank(), units, busy.Seconds())
}

// heartbeatPayload returns the work-report payload rank's next
// heartbeat should carry: (seq, cumulative units, cumulative seconds)
// as three float64s, or nil when health is off or the rank has not
// reported yet (a plain liveness heartbeat).
func (m *Machine) heartbeatPayload(rank int) []byte {
	if m.work == nil {
		return nil
	}
	seq, units, secs := m.work.snapshot(rank)
	if seq == 0 {
		return nil
	}
	return msg.EncodeFloat64s([]float64{float64(seq), units, secs})
}

// observeHeartbeat feeds a received heartbeat's piggybacked work report
// into the shared scorer.  Plain heartbeats (no payload) are ignored;
// the scorer deduplicates by sequence, so the n monitors of the
// in-process machine fold each report in exactly once.
func (m *Machine) observeHeartbeat(from int, data []byte) {
	if m.health == nil || len(data) < 24 {
		return
	}
	v := msg.DecodeFloat64s(data)
	if len(v) >= 3 {
		m.health.Observe(from, int64(v[0]), v[1], v[2])
	}
}
