package msg

import (
	"math"
	"sync/atomic"
)

// CostModel maintains per-processor virtual clocks under the Hockney
// communication model: a message of n bytes sent at sender time t arrives
// at t + Alpha + Beta*n.  Receiving advances the receiver's clock to at
// least the arrival time; sending charges the sender the startup overhead.
// Computation is charged explicitly via Charge.
//
// The paper's §4 analysis ("given the startup overhead and cost per byte
// of each message of the target machine, the ratio N/p will determine the
// most appropriate distribution") is evaluated against this model: the
// experiment harnesses run the same program under several (Alpha, Beta)
// machine parameterizations and report the modeled makespan.
//
// Clocks are single-writer (only the owning processor advances its own
// clock) and stored as atomic float bits so the final collection and the
// packet timestamps read consistent values.
type CostModel struct {
	// Alpha is the per-message startup cost in seconds.
	Alpha float64
	// Beta is the per-byte transfer cost in seconds.
	Beta float64
	// SendOverhead is the CPU time the sender spends per message
	// (defaults to Alpha if zero at construction; see NewCostModel).
	SendOverhead float64

	clocks []atomic.Uint64
}

// NewCostModel creates a cost model for np processors.  alpha is the
// message startup in seconds, beta the per-byte cost in seconds.
func NewCostModel(np int, alpha, beta float64) *CostModel {
	c := &CostModel{Alpha: alpha, Beta: beta, SendOverhead: alpha / 2}
	c.clocks = make([]atomic.Uint64, np)
	return c
}

// Clock returns processor rank's current virtual time in seconds.
func (c *CostModel) Clock(rank int) float64 {
	return math.Float64frombits(c.clocks[rank].Load())
}

func (c *CostModel) setClock(rank int, t float64) {
	c.clocks[rank].Store(math.Float64bits(t))
}

// OnSend charges the sender its per-message overhead and returns the
// sender's clock at send time (stamped into the packet).
func (c *CostModel) OnSend(rank, nbytes int) float64 {
	t := c.Clock(rank)
	c.setClock(rank, t+c.SendOverhead)
	return t
}

// OnRecv advances the receiver's clock to the message arrival time
// (sender clock + Alpha + Beta*n) if that is later than its current time.
func (c *CostModel) OnRecv(rank int, sendClock float64, nbytes int) {
	arrival := sendClock + c.Alpha + c.Beta*float64(nbytes)
	if t := c.Clock(rank); arrival > t {
		c.setClock(rank, arrival)
	}
}

// Charge advances rank's clock by the given number of seconds of local
// computation.
func (c *CostModel) Charge(rank int, seconds float64) {
	c.setClock(rank, c.Clock(rank)+seconds)
}

// Makespan returns the maximum virtual clock over all processors — the
// modeled parallel execution time.
func (c *CostModel) Makespan() float64 {
	m := 0.0
	for i := range c.clocks {
		if t := c.Clock(i); t > m {
			m = t
		}
	}
	return m
}
