package msg

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ChanTransport is the default in-process transport: each processor owns a
// matcher mailbox and Send appends a copied payload directly to the
// destination mailbox.  The copy is deliberate — it preserves
// distributed-memory semantics for everything that is sent (no sharing of
// buffers between sender and receiver), and makes byte accounting
// identical to the TCP transport.  As on TCP, the copy lands in a buffer
// from a per-(sender, receiver) free list that only Packet.Release
// refills, so a released payload's buffer carries the next one of its
// size.  What the endpoints do share is the address space, which they
// report as SharedMemory(): a Window's Offer/Pull uses that to let the
// receiver copy straight out of the offerer's storage, ordered by a
// zero-byte token sent through here.
type ChanTransport struct {
	np     int
	boxes  []*matcher
	eps    []chanEndpoint
	free   []rxFree // by sender*np + receiver
	stats  *Stats
	cost   *CostModel
	tracer *trace.Tracer
	closed atomic.Bool
}

// NewChanTransport creates an in-process transport for np processors.
// opts may carry a cost model (WithCost).
func NewChanTransport(np int, opts ...Option) *ChanTransport {
	if np <= 0 {
		panic(fmt.Sprintf("msg: invalid processor count %d", np))
	}
	t := &ChanTransport{
		np:    np,
		boxes: make([]*matcher, np),
		free:  make([]rxFree, np*np),
		stats: NewStats(np),
	}
	for _, o := range opts {
		o(&option{cost: &t.cost, tracer: &t.tracer})
	}
	for i := range t.boxes {
		t.boxes[i] = newMatcher()
	}
	t.eps = make([]chanEndpoint, np)
	for i := range t.eps {
		t.eps[i] = chanEndpoint{t: t, rank: i}
	}
	return t
}

// Option configures a transport.
type Option func(*option)

type option struct {
	cost   **CostModel
	tracer **trace.Tracer
}

// WithCost attaches a cost model to the transport.
func WithCost(c *CostModel) Option {
	return func(o *option) { *o.cost = c }
}

// WithTracer attaches an event tracer: every point-to-point send and
// receive is recorded with peer and payload size while the tracer is
// enabled.  A nil tracer is a no-op.
func WithTracer(tr *trace.Tracer) Option {
	return func(o *option) { *o.tracer = tr }
}

// NP returns the processor count.
func (t *ChanTransport) NP() int { return t.np }

// Stats returns the traffic statistics collector.
func (t *ChanTransport) Stats() *Stats { return t.stats }

// Cost returns the attached cost model (nil if none).
func (t *ChanTransport) Cost() *CostModel { return t.cost }

// Tracer returns the attached event tracer (nil if none).
func (t *ChanTransport) Tracer() *trace.Tracer { return t.tracer }

// Endpoint returns processor rank's endpoint.
func (t *ChanTransport) Endpoint(rank int) Endpoint {
	return &t.eps[rank]
}

// Close shuts the transport down; blocked receives return ErrClosed.
func (t *ChanTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, b := range t.boxes {
		b.close()
	}
	return nil
}

type chanEndpoint struct {
	t    *ChanTransport
	rank int
}

func (e *chanEndpoint) Rank() int { return e.rank }
func (e *chanEndpoint) NP() int   { return e.t.np }

// SharedMemory reports that sender and receiver share one address space,
// enabling the window's offer/pull fast path (the puller copies straight
// out of the offered storage; the transport moves only tokens).
func (e *chanEndpoint) SharedMemory() bool { return true }

// Tracer exposes the transport's tracer so Comm can record collective
// spans without widening the Endpoint interface.
func (e *chanEndpoint) Tracer() *trace.Tracer { return e.t.tracer }

func (e *chanEndpoint) Send(to, tag int, data []byte) error {
	return e.sendGather(to, tag, gather{one: data})
}

// sendGather implements gatherSender: the pieces are copied straight into
// the receive buffer the payload takes from the pair's free list.
func (e *chanEndpoint) sendGather(to, tag int, g gather) error {
	if e.t.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= e.t.np {
		return fmt.Errorf("msg: send to invalid rank %d (np=%d)", to, e.t.np)
	}
	n := g.len()
	p := Packet{From: e.rank, Tag: tag, Data: make([]byte, 0)}
	if n > 0 {
		f := &e.t.free[e.rank*e.t.np+to]
		p.Data, p.home = f.take(n), f
		g.copyTo(p.Data)
	}
	if c := e.t.cost; c != nil {
		p.SendClock = c.OnSend(e.rank, n)
	}
	e.t.stats.OnSend(e.rank, to, n)
	if tr := e.t.tracer; tr != nil {
		tr.Send(e.rank, to, n)
	}
	e.t.boxes[to].put(p)
	return nil
}

func (e *chanEndpoint) Recv(from, tag int) (Packet, error) {
	p, err := e.t.boxes[e.rank].get(from, tag)
	if err != nil {
		return p, err
	}
	e.afterRecv(p)
	return p, nil
}

func (e *chanEndpoint) RecvTimeout(from, tag int, d time.Duration) (Packet, error) {
	p, err := e.t.boxes[e.rank].getTimeout(from, tag, d)
	if err != nil {
		return p, err
	}
	e.afterRecv(p)
	return p, nil
}

func (e *chanEndpoint) afterRecv(p Packet) {
	e.t.stats.OnRecv(e.rank, p.From, len(p.Data))
	if c := e.t.cost; c != nil {
		c.OnRecv(e.rank, p.SendClock, len(p.Data))
	}
	if tr := e.t.tracer; tr != nil {
		tr.Recv(e.rank, p.From, len(p.Data))
	}
}
