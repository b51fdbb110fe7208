package msg

import "fmt"

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
type ChanTransport struct{ core }

// NewChanTransport creates an in-process transport for np processors.
// opts may carry a cost model (WithCost).
func NewChanTransport(np int, opts ...Option) *ChanTransport {
	if np <= 0 {
		panic(fmt.Sprintf("msg: invalid processor count %d", np))
	}
	t := &ChanTransport{}
	t.init(np, opts, t.land)
	eps := make([]chanEndpoint, np)
	for i := range eps {
		eps[i] = chanEndpoint{port{&t.core, i}}
		t.eps[i] = &eps[i]
	}
	return t
}

type chanEndpoint struct{ port }

// SharedMemory reports that sender and receiver share one address space,
// enabling the window's offer/pull fast path (the puller copies straight
// out of the offered storage; the transport moves only tokens).
func (e *chanEndpoint) SharedMemory() bool { return true }
