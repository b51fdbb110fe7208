// Package msg is the message-passing substrate of the Vienna Fortran
// Engine (VFE, paper §3.2): "a run time library of communication routines
// for transferring single array elements and array sections, including
// specialized routines for handling reductions".
//
// Go has no MPI ecosystem, so this package implements the messaging layer
// from scratch.  It provides:
//
//   - tagged, matched point-to-point messaging between P logical
//     processors (Endpoint.Send / Endpoint.Recv with wildcard matching),
//   - two interchangeable transports: an in-process channel transport
//     (ChanTransport) and a TCP loopback transport (TCPTransport) that
//     pushes every byte through real sockets,
//   - tree-based collectives (Comm): barrier, broadcast, reduce,
//     allreduce, gather, allgather, alltoallv,
//   - per-processor traffic statistics (Stats) and a Hockney-style
//     alpha/beta cost model (CostModel) driving per-processor virtual
//     clocks, used by the experiment harnesses to reproduce the paper's
//     message-cost arguments (§4).
//
// Both transports embed one core (core.go): the mailboxes, Stats, the
// cost model and the tracer, the receive, and every send's checks and
// accounting; each adds only its delivery (a copy into the peer's
// mailbox, a frame on the socket).  FaultTransport and IntegrityTransport
// embed the Transport they wrap and define only Endpoint; a View wraps
// one endpoint per membership epoch.  Each layer writes its receive once,
// recv(from, tag, d), under both Recv and RecvTimeout.
//
// All payloads are byte slices at the transport boundary; codec.go
// provides the encodings for the element types the runtime uses.  Byte
// counts observed by Stats are therefore real wire sizes on both
// transports.
package msg

import (
	"errors"
	"time"

	"repro/internal/trace"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Reserved tag ranges.  User-level tags must be < TagMemberBase.
const (
	// TagMemberBase is the base of the small tag space used by the
	// machine membership layer's survivor-agreement rounds (round k of
	// the regroup to epoch e uses FoldTag(e, TagMemberBase+k)); it sits
	// below the probe tags so agreement traffic never matches
	// application receives.
	TagMemberBase = 1 << 24
	// TagProbe carries a membership probe to a peer's probe responder,
	// and TagProbeReply (below) the responder's answer.  Both are sent
	// unfolded between physical ranks and sit below the RMA space, so a
	// responder's receive never matches application traffic.
	TagProbe = 1 << 25
	// TagJoinWelcome is the single tag used by the machine membership
	// layer to hand an admitted joiner its first epoch view (the welcome
	// carries [epoch, members...]).  It is sent unfolded — a joiner does
	// not know the epoch it is being admitted into — and lives in the
	// reserved space next to the probe tags, so a waiting joiner's
	// receive loop never matches application or agreement traffic.
	TagJoinWelcome = TagProbe + 1
	TagProbeReply  = TagProbe + 2
	// TagRMABase is the base of the tag space used by the one-sided
	// get/put service of the darray package; that space ends below
	// TagCollBase.
	TagRMABase = 1 << 26
	// TagCollBase is the base of the unbounded tag space used by Comm
	// collectives.  Collective tags are TagCollBase + seq with a
	// monotonically increasing per-Comm sequence number: they never wrap,
	// so a tag can never be reused while an earlier collective's message
	// is still unconsumed in a mailbox (tags are int64-wide on the wire).
	TagCollBase = 1 << 27
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("msg: transport closed")

// ErrTimeout is returned by RecvTimeout when no matching message arrives
// in time.
var ErrTimeout = errors.New("msg: receive timeout")

// Packet is a delivered message.  Data belongs to the receiver: it may be
// read, written, re-sliced and kept for as long as the receiver likes.
type Packet struct {
	From int
	Tag  int
	Data []byte
	// SendClock is the sender's virtual clock (seconds) at send time,
	// used by the cost model; zero when no cost model is attached.
	SendClock float64
	// home is the free list Data's buffer came from; nil for empty
	// payloads and for TCP payloads too small to be worth keeping.
	home *rxFree
}

// Release hands Data's buffer back to the transport for a later receive
// of the same size.  After Release the receiver must not touch Data
// again.  Releasing is never required — a packet that is not released is
// simply garbage collected — and it is a no-op for packets the transport
// did not take from a free list (empty ones, small TCP ones); releasing
// the same packet twice in a row is harmless.
// Decorators pass packets by value, so a packet received through a View,
// the integrity layer or a fault injector releases the buffer it arrived
// in.
func (p Packet) Release() {
	if p.home != nil {
		p.home.put(p.Data[:cap(p.Data)])
	}
}

// Endpoint is one processor's connection to the transport.  Send may be
// called concurrently; Recv may be called concurrently by consumers with
// disjoint match sets (e.g. the SPMD body and the one-sided service loop,
// which listens on the RMA tag space only).
type Endpoint interface {
	// Rank returns this endpoint's processor number in 0..NP-1.
	Rank() int
	// NP returns the number of processors on the transport.
	NP() int
	// Send delivers data to processor `to` with the given tag.  The
	// transport finishes reading data before Send returns — the channel
	// transport has copied it into the destination mailbox, the TCP
	// transport has written it to the socket straight from the caller's
	// slice — so the caller may reuse the buffer as soon as Send returns
	// and must not modify it before.  This is the contract that lets the
	// data-movement layer recycle its pack buffer across rounds.  The
	// ownership rule on the other side: a received Packet.Data is the
	// receiver's until it calls Packet.Release and never after; not
	// releasing is always safe.  Not every byte a program moves is handed
	// to Send: a Window sends a rect as the byte views of its storage runs
	// through the endpoints' gathered facet (sendGather), and on endpoints
	// that report SharedMemory() its Offer/Pull (DISTRIBUTE's rect
	// transfers) lets the receiver copy straight out of the offerer's
	// storage and sends only a zero-byte token, accounting the payload
	// beside it.
	Send(to, tag int, data []byte) error
	// Recv blocks until a message matching (from, tag) arrives and
	// returns it.  AnySource / AnyTag act as wildcards.  Messages from
	// the same sender with the same tag are received in send order.
	Recv(from, tag int) (Packet, error)
	// RecvTimeout is Recv with a deadline; it returns ErrTimeout if no
	// matching message arrives in time (at once when d <= 0 and none is
	// queued).
	RecvTimeout(from, tag int, d time.Duration) (Packet, error)
	// Tracer returns the transport's event tracer, or nil; Comm records
	// its collective spans on it.
	Tracer() *trace.Tracer
}

// receive runs one receive on ep: Recv when d <= 0, RecvTimeout(d)
// otherwise.  Each layer writes its receive once, as recv(from, tag, d),
// and passes d down through here; its Recv passes no deadline and its
// RecvTimeout passes deadline(d).
func receive(ep Endpoint, from, tag int, d time.Duration) (Packet, error) {
	if d <= 0 {
		return ep.Recv(from, tag)
	}
	return ep.RecvTimeout(from, tag, d)
}

// deadline is RecvTimeout's d as a receive deadline: at least a
// nanosecond, so that a deadline already past times out instead of
// waiting for ever.
func deadline(d time.Duration) time.Duration { return max(d, time.Nanosecond) }

// gather is a message payload given as pieces: one, then each of pieces,
// then — when summed — the four little-endian bytes of sum, the CRC32C
// trailer of the integrity layer.  It is passed by value, so a plain
// Send's payload (one) needs no list.
type gather struct {
	one    []byte
	pieces [][]byte
	sum    uint32
	summed bool
}

// len returns the payload's length in bytes, the trailer included.
func (g gather) len() int {
	n := len(g.one)
	for _, p := range g.pieces {
		n += len(p)
	}
	if g.summed {
		n += 4
	}
	return n
}

// copyTo writes the payload into dst, which holds exactly g.len() bytes.
func (g gather) copyTo(dst []byte) {
	off := copy(dst, g.one)
	for _, p := range g.pieces {
		off += copy(dst[off:], p)
	}
	if g.summed {
		PutUint32(dst, off, g.sum)
	}
}

// join returns the payload as one slice: one itself when that is all of
// it, a fresh copy otherwise.
func (g gather) join() []byte {
	if len(g.pieces) == 0 && !g.summed {
		return g.one
	}
	b := make([]byte, g.len())
	g.copyTo(b)
	return b
}

// gatherSender is the vectored-send facet every endpoint of this package
// implements: it sends g as one message, byte for byte Send(to, tag,
// g.join()), without joining the pieces — the TCP endpoint writes them
// with writev, the chan endpoint copies them into the receive buffer,
// and the decorators pass them down (the integrity layer after summing
// them, the fault layer joining them only for a rule that fires).
type gatherSender interface {
	sendGather(to, tag int, g gather) error
}

// sendGather sends g through ep's gathered facet, or joined through Send
// where ep has none (an endpoint of another package).
func sendGather(ep Endpoint, to, tag int, g gather) error {
	if s, ok := ep.(gatherSender); ok {
		return s.sendGather(to, tag, g)
	}
	return ep.Send(to, tag, g.join())
}

// Wire returns the transport endpoint beneath ep's decorators — the chan
// or TCP endpoint under the fault injector and the integrity layer — or
// ep itself when it decorates none.  A receive there meets no fault rule
// and checks no CRC; its Recv fails only once the transport is closed.
func Wire(ep Endpoint) Endpoint {
	for {
		d, ok := ep.(interface{ wrapped() Endpoint })
		if !ok {
			return ep
		}
		ep = d.wrapped()
	}
}

// Transport connects NP logical processors.
type Transport interface {
	NP() int
	Endpoint(rank int) Endpoint
	Close() error
	// Stats returns the transport's traffic statistics collector.
	Stats() *Stats
	// Cost returns the attached cost model, or nil.
	Cost() *CostModel
	// Tracer returns the attached event tracer, or nil.  Transports
	// record per-message send/recv events on it when it is enabled.
	Tracer() *trace.Tracer
}
