package msg

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/trace"
)

// ErrIntegrity is returned by a receive whose payload failed its CRC32C
// check.  The corrupt frame has already been consumed from the mailbox,
// so the operation cannot heal by retrying the receive — RecvRetry
// treats ErrIntegrity as terminal (like ErrClosed) and surfaces it as a
// named transport error immediately.
var ErrIntegrity = errors.New("msg: payload integrity check failed")

// castagnoli is the CRC32C polynomial table (the iSCSI/SSE4.2 one),
// shared by all integrity endpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IntegrityTransport decorates any Transport with end-to-end payload
// integrity: Send appends a CRC32C trailer over the payload, Recv
// verifies and strips it, failing with ErrIntegrity on mismatch.  The
// checksum covers the payload from the sender's pack buffer to the
// receiver's unpack, so corruption introduced anywhere on the path —
// including a fault injector's bitflip — is detected at the receive.
//
// Layer it OUTSIDE a FaultTransport (Integrity(Fault(base))): the
// checksum is then computed before injection and verified after, so an
// injected FaultCorrupt flip is caught exactly as real wire corruption
// would be.  Its endpoints do not report SharedMemory(), so a Window's
// offers travel framed and the checksum covers their payloads as well.
// A payload sent in pieces (gatherSender) is summed piece by piece — the
// sum of their concatenation — and the sum goes down beside the pieces,
// for the transport to write behind them: nothing is joined to be
// checksummed.  Everything but the endpoints is the wrapped transport's;
// its Stats count the 4-byte trailers, which really do cross the wire.
type IntegrityTransport struct {
	Transport
	eps []integrityEndpoint
}

// NewIntegrityTransport wraps inner with per-message CRC32C checksums.
func NewIntegrityTransport(inner Transport) *IntegrityTransport {
	t := &IntegrityTransport{Transport: inner, eps: make([]integrityEndpoint, inner.NP())}
	for r := range t.eps {
		t.eps[r].inner = inner.Endpoint(r)
	}
	return t
}

// Endpoint returns rank's checksumming endpoint.
func (t *IntegrityTransport) Endpoint(rank int) Endpoint { return &t.eps[rank] }

type integrityEndpoint struct {
	inner Endpoint
}

// wrapped is the facet Wire unwraps.
func (e *integrityEndpoint) wrapped() Endpoint { return e.inner }

func (e *integrityEndpoint) Rank() int { return e.inner.Rank() }
func (e *integrityEndpoint) NP() int   { return e.inner.NP() }

func (e *integrityEndpoint) Tracer() *trace.Tracer { return e.inner.Tracer() }

func (e *integrityEndpoint) Send(to, tag int, data []byte) error {
	return e.sendGather(to, tag, gather{one: data})
}

// sendGather implements gatherSender: it sums the pieces in order — the
// sum of their concatenation — and hands them down with the sum, which
// the transport writes behind them.  g carries no sum yet.
func (e *integrityEndpoint) sendGather(to, tag int, g gather) error {
	sum := crc32.Checksum(g.one, castagnoli)
	for _, p := range g.pieces {
		sum = crc32.Update(sum, castagnoli, p)
	}
	g.sum, g.summed = sum, true
	return sendGather(e.inner, to, tag, g)
}

func (e *integrityEndpoint) Recv(from, tag int) (Packet, error) { return e.recv(from, tag, 0) }

func (e *integrityEndpoint) RecvTimeout(from, tag int, d time.Duration) (Packet, error) {
	return e.recv(from, tag, deadline(d))
}

// recv receives through the wrapped endpoint, waiting at most d when
// d > 0, and checks and strips the CRC32C trailer.
func (e *integrityEndpoint) recv(from, tag int, d time.Duration) (Packet, error) {
	p, err := receive(e.inner, from, tag, d)
	if err != nil {
		return p, err
	}
	n := len(p.Data) - 4
	if n < 0 {
		return Packet{}, fmt.Errorf("%w: frame from %d (tag %d) too short for trailer (%d bytes)",
			ErrIntegrity, p.From, p.Tag, len(p.Data))
	}
	want := GetUint32(p.Data, n)
	if got := crc32.Checksum(p.Data[:n], castagnoli); got != want {
		return Packet{}, fmt.Errorf("%w: frame from %d (tag %d, %d bytes): crc32c %08x, want %08x",
			ErrIntegrity, p.From, p.Tag, n, got, want)
	}
	p.Data = p.Data[:n]
	return p, nil
}
