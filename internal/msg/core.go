package msg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// core is what the chan and TCP transports share, embedded in both: the
// endpoints, a mailbox per rank, the closed flag, the traffic
// statistics, the cost model and the tracer.  Its endpoints (port)
// receive, and run every send's checks and accounting; a transport keeps
// only how a payload travels, its deliver — a copy into the peer's
// mailbox on chan, a frame written to the socket on TCP.  A send to self
// lands by the copy on both.
type core struct {
	np     int
	eps    []Endpoint // filled in by the transport
	boxes  []matcher
	free   []rxFree // by sender*np + receiver: the buffers land copies into
	stats  *Stats
	cost   *CostModel
	tracer *trace.Tracer
	closed atomic.Bool
	// deliver moves one message, already checked and counted, from rank
	// from to rank to; clock is the sender's virtual clock at the send.
	deliver func(from, to, tag int, g gather, clock float64) error
}

// init sets the core up for np processors with the transport's options
// and delivery.
func (t *core) init(np int, opts []Option, deliver func(from, to, tag int, g gather, clock float64) error) {
	t.np, t.deliver = np, deliver
	t.eps = make([]Endpoint, np)
	t.boxes = make([]matcher, np)
	for i := range t.boxes {
		t.boxes[i].cond.L = &t.boxes[i].mu
	}
	t.free = make([]rxFree, np*np)
	t.stats = NewStats(np)
	for _, o := range opts {
		o(t)
	}
}

// Option configures a transport.
type Option func(*core)

// WithCost attaches a cost model to the transport.
func WithCost(c *CostModel) Option {
	return func(t *core) { t.cost = c }
}

// WithTracer attaches an event tracer: every point-to-point send and
// receive is recorded with peer and payload size while the tracer is
// enabled.  A nil tracer is a no-op.
func WithTracer(tr *trace.Tracer) Option {
	return func(t *core) { t.tracer = tr }
}

// NP returns the processor count.
func (t *core) NP() int { return t.np }

// Stats returns the traffic statistics collector.
func (t *core) Stats() *Stats { return t.stats }

// Cost returns the attached cost model (nil if none).
func (t *core) Cost() *CostModel { return t.cost }

// Tracer returns the attached event tracer (nil if none).
func (t *core) Tracer() *trace.Tracer { return t.tracer }

// Endpoint returns processor rank's endpoint.
func (t *core) Endpoint(rank int) Endpoint { return t.eps[rank] }

// Close shuts the transport down; blocked receives return ErrClosed.
func (t *core) Close() error {
	t.shut()
	return nil
}

// shut marks the transport closed and wakes every blocked receive with
// ErrClosed; it reports false when the transport was closed already.
func (t *core) shut() bool {
	if t.closed.Swap(true) {
		return false
	}
	for i := range t.boxes {
		t.boxes[i].close()
	}
	return true
}

// land delivers by copy: the payload lands in a buffer from the pair's
// free list, which only Packet.Release refills, and the packet in to's
// mailbox.
func (t *core) land(from, to, tag int, g gather, clock float64) error {
	p := Packet{From: from, Tag: tag, Data: make([]byte, 0), SendClock: clock, stands: g.stands}
	if n := g.len(); n > 0 {
		f := &t.free[from*t.np+to]
		p.Data, p.home = f.take(n), f
		g.copyTo(p.Data)
	}
	t.boxes[to].put(p)
	return nil
}

// port is one rank's endpoint on a core: all of a chan or TCP endpoint
// but how its sends travel.
type port struct {
	t    *core
	rank int
}

func (e *port) Rank() int { return e.rank }
func (e *port) NP() int   { return e.t.np }

// Tracer returns the transport's tracer, on which Comm records its
// collective spans.
func (e *port) Tracer() *trace.Tracer { return e.t.tracer }

func (e *port) Send(to, tag int, data []byte) error {
	return e.sendGather(to, tag, gather{one: data})
}

// sendGather implements gatherSender: the checks and the accounting of
// every send, then the transport's delivery.  A refused send is not
// counted.  The frame limit bounds the bytes the message carries; the
// accounting books those plus the payload it stands for.
func (e *port) sendGather(to, tag int, g gather) error {
	t := e.t
	if t.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= t.np {
		return fmt.Errorf("msg: send to invalid rank %d (np=%d)", to, t.np)
	}
	n := g.len()
	if n > maxFrame {
		return fmt.Errorf("msg: send: rank %d to %d: payload of %d bytes exceeds the frame limit of %d", e.rank, to, n, maxFrame)
	}
	n += g.stands
	var clock float64
	if t.cost != nil {
		clock = t.cost.OnSend(e.rank, n)
	}
	t.stats.OnSend(e.rank, to, n)
	if t.tracer != nil {
		t.tracer.Send(e.rank, to, n)
	}
	return t.deliver(e.rank, to, tag, g, clock)
}

func (e *port) Recv(from, tag int) (Packet, error) { return e.recv(from, tag, 0) }

func (e *port) RecvTimeout(from, tag int, d time.Duration) (Packet, error) {
	return e.recv(from, tag, deadline(d))
}

// recv takes the first packet matching (from, tag) out of the rank's
// mailbox — waiting at most d when d > 0 — and accounts it, with the
// payload it stands for.
func (e *port) recv(from, tag int, d time.Duration) (Packet, error) {
	t := e.t
	p, err := t.boxes[e.rank].get(from, tag, d)
	if err != nil {
		return p, err
	}
	n := len(p.Data) + p.stands
	t.stats.OnRecv(e.rank, p.From, n)
	if t.cost != nil {
		t.cost.OnRecv(e.rank, p.SendClock, n)
	}
	if t.tracer != nil {
		t.tracer.Recv(e.rank, p.From, n)
	}
	return p, nil
}

// matcher is an unbounded mailbox with predicate matching.  Producers
// append packets; consumers block until a packet matching their (from,
// tag) pattern is present.  Multiple concurrent consumers are supported;
// per-(from,tag) FIFO order is preserved because consumers scan the queue
// front-to-back.
type matcher struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu
	queue  []Packet
	closed bool
	alarms []*alarm // stopped, for the next timed waits (arm)
}

func (m *matcher) put(p Packet) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *matcher) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

func matches(p Packet, from, tag int) bool {
	return (from == AnySource || p.From == from) && (tag == AnyTag || p.Tag == tag)
}

// take removes and returns the first queued packet matching (from, tag).
// The slot the removal vacates past the new length is zeroed: left alone
// it would keep the packet's payload reachable from the mailbox long
// after the receiver dropped it.  m.mu must be held.
func (m *matcher) take(from, tag int) (Packet, bool) {
	for i, p := range m.queue {
		if matches(p, from, tag) {
			last := len(m.queue) - 1
			copy(m.queue[i:], m.queue[i+1:])
			m.queue[last] = Packet{}
			m.queue = m.queue[:last]
			return p, true
		}
	}
	return Packet{}, false
}

// get removes and returns the first packet matching (from, tag), waiting
// for one at most d when d > 0, under an alarm armed only to wait and
// kept for the mailbox's next waits, so that a wait allocates nothing.
func (m *matcher) get(from, tag int, d time.Duration) (Packet, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var a *alarm
	defer func() {
		if a != nil {
			a.timer.Stop()
			m.alarms = append(m.alarms, a)
		}
	}()
	for {
		if p, ok := m.take(from, tag); ok {
			return p, nil
		}
		if m.closed {
			return Packet{}, ErrClosed
		}
		if d > 0 && a == nil {
			a = m.arm(d)
		} else if a != nil && a.expired {
			return Packet{}, fmt.Errorf("%w (from=%d tag=%d)", ErrTimeout, from, tag)
		}
		m.cond.Wait()
	}
}

// alarm is one timed wait's deadline.  Its timer sets expired under the
// mailbox lock before it broadcasts, so the fire cannot slip between a
// consumer's check and its cond.Wait.  A fire that Stop came too late to
// cancel finds the clock short of the re-armed deadline: no mark.
type alarm struct {
	timer   *time.Timer
	when    time.Time // the current deadline
	expired bool      // guarded by the mailbox's mu
}

// arm returns an alarm that expires d from now, one the mailbox kept if
// it has one.  m.mu must be held.
func (m *matcher) arm(d time.Duration) *alarm {
	if n := len(m.alarms); n > 0 {
		a := m.alarms[n-1]
		m.alarms = m.alarms[:n-1]
		a.when, a.expired = time.Now().Add(d), false
		a.timer.Reset(d)
		return a
	}
	a := &alarm{when: time.Now().Add(d)}
	a.timer = time.AfterFunc(d, func() {
		m.mu.Lock()
		a.expired = a.expired || !time.Now().Before(a.when)
		m.mu.Unlock()
		m.cond.Broadcast()
	})
	return a
}
