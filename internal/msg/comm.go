package msg

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// RetryPolicy bounds how long an operation may wait on the transport (or,
// in internal/pario, on the disk).  The zero value preserves the
// historical behaviour: block forever, fail only when the operation
// errors.
//
// With a Timeout set, every receive runs under a deadline; a timed-out or
// failed operation is retried up to Retries times before the caller gets
// a wrapped error naming the operation and rank.  The deadline doubles
// per attempt up to 4×Timeout, and a failed attempt sleeps 1 ms doubling
// to 16 ms before the next.  Over an epoch View a missed deadline on a
// named peer is also the membership layer's only failure signal: the
// View's Suspect probes the peer, and a confirmed death ends the
// operation at once.  Errors that cannot heal (ErrClosed, ErrIntegrity —
// the corrupt frame is already consumed) are never retried.
type RetryPolicy struct {
	// Timeout is the first attempt's deadline; 0 means wait forever.
	Timeout time.Duration
	// Retries is the number of extra attempts after the first failure.
	Retries int
}

// The escalation every RetryPolicy runs: the deadline grows to at most
// maxDeadlineFactor×Timeout, the sleep between attempts from baseBackoff
// to maxBackoff.
const (
	maxDeadlineFactor = 4
	baseBackoff       = time.Millisecond
	maxBackoff        = 16 * time.Millisecond
)

// Deadline returns the deadline of attempt (0-based): Timeout doubled per
// attempt, capped at 4×Timeout.  0 means wait forever.
func (p RetryPolicy) Deadline(attempt int) time.Duration {
	return escalate(p.Timeout, attempt, maxDeadlineFactor*p.Timeout)
}

// Backoff returns the sleep before retry attempt+1: 1 ms doubled per
// attempt, capped at 16 ms.
func (RetryPolicy) Backoff(attempt int) time.Duration {
	return escalate(baseBackoff, attempt, maxBackoff)
}

// MaxWait bounds the deadlines one operation retried to exhaustion waits
// through: (Retries+1)·4·Timeout.
func (p RetryPolicy) MaxWait() time.Duration {
	return time.Duration(p.Retries+1) * maxDeadlineFactor * p.Timeout
}

// maxEscalateShift saturates the exponential deadline/backoff escalation so
// the shift cannot overflow a Duration even with absurd retry counts.
const maxEscalateShift = 16

// escalate returns d doubled attempt times, saturating (never negative or
// smaller than d on overflow) and clamped to max when max > 0.
func escalate(d time.Duration, attempt int, max time.Duration) time.Duration {
	if attempt > maxEscalateShift {
		attempt = maxEscalateShift
	}
	e := d << attempt
	if e>>attempt != d || e < 0 { // overflow: saturate
		e = 1<<63 - 1
	}
	if max > 0 && e > max {
		e = max
	}
	return e
}

// checkLive is consulted before every retry attempt: over an epoch View
// a non-nil error (typically machine.ErrEpochRevoked) aborts the
// operation immediately instead of letting it time out attempt by
// attempt against a peer that is already known dead.
func checkLive(ep Endpoint) error {
	if v, ok := ep.(*View); ok {
		return v.CheckLive()
	}
	return nil
}

// suspect is called after every receive attempt that missed its deadline
// on a named peer: over an epoch View the membership layer probes that
// peer, and a non-nil error (the death confirmed) aborts the operation.
func suspect(ep Endpoint, from int) error {
	if v, ok := ep.(*View); ok && from != AnySource {
		return v.Suspect(from)
	}
	return nil
}

// terminal reports whether err can never heal by retrying: the
// transport is closed, or a corrupt frame was already consumed from the
// mailbox (retrying the receive would just time out on the gap).
func terminal(err error) bool {
	return errors.Is(err, ErrClosed) || errors.Is(err, ErrIntegrity)
}

// SendRetry sends under the retry policy, wrapping any terminal error
// with the operation name and sending rank.  Each retry is recorded as a
// "retry:<op>" instant on the tracer (when non-nil).
func SendRetry(ep Endpoint, pol RetryPolicy, tr *trace.Tracer, op string, to, tag int, data []byte) error {
	return sendRetry(ep, pol, tr, op, to, tag, gather{one: data})
}

// sendRetry is SendRetry for a payload given as pieces.
func sendRetry(ep Endpoint, pol RetryPolicy, tr *trace.Tracer, op string, to, tag int, g gather) error {
	for attempt := 0; ; attempt++ {
		if err := checkLive(ep); err != nil {
			return fmt.Errorf("msg: %s: rank %d: send to %d: %w", op, ep.Rank(), to, err)
		}
		err := sendGather(ep, to, tag, g)
		if err == nil {
			return nil
		}
		if attempt >= pol.Retries || terminal(err) {
			return fmt.Errorf("msg: %s: rank %d: send to %d: %w", op, ep.Rank(), to, err)
		}
		if tr != nil {
			tr.Instant(ep.Rank(), trace.CatCollective, "retry:"+op, to, int64(attempt+1))
		}
		time.Sleep(pol.Backoff(attempt))
	}
}

// RecvRetry receives under the retry policy, wrapping any terminal error
// with the operation name and receiving rank.  With no Timeout it blocks
// forever (but still retries recoverable receive errors up to Retries
// times).
func RecvRetry(ep Endpoint, pol RetryPolicy, tr *trace.Tracer, op string, from, tag int) (Packet, error) {
	for attempt := 0; ; attempt++ {
		if err := checkLive(ep); err != nil {
			return Packet{}, fmt.Errorf("msg: %s: rank %d: recv from %d: %w", op, ep.Rank(), from, err)
		}
		p, err := receive(ep, from, tag, pol.Deadline(attempt))
		if err == nil {
			return p, nil
		}
		if errors.Is(err, ErrTimeout) {
			if serr := suspect(ep, from); serr != nil {
				return Packet{}, fmt.Errorf("msg: %s: rank %d: recv from %d: %w", op, ep.Rank(), from, serr)
			}
		}
		if attempt >= pol.Retries || terminal(err) {
			return Packet{}, fmt.Errorf("msg: %s: rank %d: recv from %d: %w", op, ep.Rank(), from, err)
		}
		if tr != nil {
			tr.Instant(ep.Rank(), trace.CatCollective, "retry:"+op, from, int64(attempt+1))
		}
		time.Sleep(pol.Backoff(attempt))
	}
}

// Comm layers collective operations over an Endpoint.  Each logical
// processor of an SPMD program owns one Comm; because every processor
// executes the same sequence of collectives, a shared atomic sequence
// counter per transport is not needed — each Comm tracks its own count and
// the counts agree, yielding matching tags.
//
// All collectives use O(log P) binomial/dissemination algorithms where the
// operation allows, mirroring what the VFE's "specialized routines for
// handling reductions" (§3.2) would provide.
type Comm struct {
	ep   Endpoint
	tr   *trace.Tracer
	pol  RetryPolicy
	seq  int64
	ints []byte // an int collective's encoding: a send consumes it
}

// NewComm wraps an endpoint.  Every collective records a span on the
// endpoint's Tracer when it has one.
func NewComm(ep Endpoint) *Comm {
	return &Comm{ep: ep, tr: ep.Tracer()}
}

// SetRetry installs the retry policy for this Comm's collectives.  Every
// processor of an SPMD program must install the same policy (collective
// counts stay aligned either way, but retry behaviour should be uniform).
func (c *Comm) SetRetry(pol RetryPolicy) { c.pol = pol }

// Retry returns the installed retry policy.
func (c *Comm) Retry() RetryPolicy { return c.pol }

// send/recv are the retrying transport ops all collectives go through.
func (c *Comm) send(op string, to, tag int, data []byte) error {
	return SendRetry(c.ep, c.pol, c.tr, op, to, tag, data)
}

func (c *Comm) recv(op string, from, tag int) (Packet, error) {
	return RecvRetry(c.ep, c.pol, c.tr, op, from, tag)
}

// span opens a collective-category trace span.  Call sites guard on
// c.tr != nil themselves so the untraced hot path (barriers run in the
// hundreds of nanoseconds) skips the Rank() call, the Span construction,
// and the deferred End entirely.
func (c *Comm) span(name string) trace.Span {
	return c.tr.BeginSpan(c.ep.Rank(), trace.CatCollective, name)
}

// Rank returns this processor's rank.
func (c *Comm) Rank() int { return c.ep.Rank() }

// NP returns the number of processors.
func (c *Comm) NP() int { return c.ep.NP() }

// Endpoint exposes the underlying endpoint for point-to-point traffic.
func (c *Comm) Endpoint() Endpoint { return c.ep }

// nextTag returns a fresh collective tag.  The sequence is monotonic and
// never wraps (the tag space above TagCollBase is unbounded and tags are 8
// bytes on the TCP wire), so a long run can never reuse a tag that still
// has an unconsumed message sitting in a mailbox — the wraparound bug the
// old `seq % (1<<20)` fold had.
func (c *Comm) nextTag() int {
	c.seq++
	return TagCollBase + int(c.seq)
}

// Barrier blocks until all processors have entered it (dissemination
// algorithm, ceil(log2 P) rounds).
func (c *Comm) Barrier() error {
	if c.tr != nil {
		defer c.span("barrier").End()
	}
	np, rank := c.NP(), c.Rank()
	tag := c.nextTag()
	if np == 1 {
		return nil
	}
	for k := 1; k < np; k <<= 1 {
		to := (rank + k) % np
		from := (rank - k + np) % np
		if err := c.send("barrier", to, tag, nil); err != nil {
			return err
		}
		if _, err := c.recv("barrier", from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts buf from root; on non-roots the returned slice holds the
// received data (buf is ignored there and may be nil).
func (c *Comm) Bcast(root int, buf []byte) ([]byte, error) {
	if c.tr != nil {
		defer c.span("bcast").End()
	}
	np, rank := c.NP(), c.Rank()
	tag := c.nextTag()
	if np == 1 {
		return buf, nil
	}
	// Binomial tree rooted at root: operate in the rotated rank space
	// vrank = (rank - root + np) % np.  A non-root receives from its
	// parent, vrank with its lowest set bit cleared, by name, so a missed
	// deadline names the rank to suspect.
	vrank := (rank - root + np) % np
	if vrank != 0 {
		p, err := c.recv("bcast", (vrank&(vrank-1)+root)%np, tag)
		if err != nil {
			return nil, err
		}
		buf = p.Data
	}
	// Forward to children: vchild = vrank + 2^k for 2^k > vrank's low bits.
	mask := 1
	for mask < np && vrank&mask == 0 {
		vchild := vrank | mask
		if vchild < np {
			child := (vchild + root) % np
			if err := c.send("bcast", child, tag, buf); err != nil {
				return nil, err
			}
		}
		mask <<= 1
	}
	// Consume remaining: non-root ranks with low set bit stop forwarding.
	return buf, nil
}

// reduce is the binomial-tree reduction into root under every Allreduce.
// On root the returned slice holds the reduction, on others it is nil.
func (c *Comm) reduce(root int, vals []float64, op func(a, b float64) float64) ([]float64, error) {
	if c.tr != nil {
		defer c.span("reduce").End()
	}
	np, rank := c.NP(), c.Rank()
	tag := c.nextTag()
	acc := make([]float64, len(vals))
	copy(acc, vals)
	if np == 1 {
		return acc, nil
	}
	vrank := (rank - root + np) % np
	var got []float64 // decode scratch, shared by all receive rounds
	// Binomial tree: in round k, vranks with bit k set send to vrank-2^k.
	for mask := 1; mask < np; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % np
			if err := c.send("reduce", parent, tag, EncodeFloat64s(acc)); err != nil {
				return nil, err
			}
			return nil, nil
		}
		// I receive from vrank+mask if that rank exists.
		if vrank|mask < np {
			p, err := c.recv("reduce", ((vrank|mask)+root)%np, tag)
			if err != nil {
				return nil, err
			}
			if len(p.Data) != 8*len(acc) {
				return nil, fmt.Errorf("msg: reduce length mismatch %d vs %d", len(p.Data)/8, len(acc))
			}
			if got == nil {
				got = make([]float64, len(acc))
			}
			DecodeFloat64sInto(got, p.Data)
			for i := range acc {
				acc[i] = op(acc[i], got[i])
			}
		}
	}
	return acc, nil
}

// AllreduceF64 reduces over all processors and distributes the result to
// everyone: one reduce into rank 0 and one broadcast of the result.
func (c *Comm) AllreduceF64(vals []float64, op func(a, b float64) float64) ([]float64, error) {
	red, err := c.reduce(0, vals, op)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if c.Rank() == 0 {
		buf = EncodeFloat64s(red)
	}
	out, err := c.Bcast(0, buf)
	if err != nil {
		return nil, err
	}
	if len(out) != 8*len(vals) {
		return nil, fmt.Errorf("msg: allreduce: rank %d: result of %d bytes, want %d", c.Rank(), len(out), 8*len(vals))
	}
	return DecodeFloat64s(out), nil
}

// AllreduceInts reduces an []int over all processors; every processor gets
// the result.  Values must stay within float64's exact-integer range,
// which all runtime uses (counts, bounds) do.
func (c *Comm) AllreduceInts(vals []int, op func(a, b int) int) ([]int, error) {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	fop := func(a, b float64) float64 { return float64(op(int(a), int(b))) }
	r, err := c.AllreduceF64(f, fop)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(r))
	for i, v := range r {
		out[i] = int(v)
	}
	return out, nil
}

// Gather collects each processor's buf at root.  On root, the returned
// slice has NP entries indexed by rank; on others it is nil.
func (c *Comm) Gather(root int, buf []byte) ([][]byte, error) {
	if c.tr != nil {
		defer c.span("gather").End()
	}
	np, rank := c.NP(), c.Rank()
	tag := c.nextTag()
	if rank != root {
		return nil, c.send("gather", root, tag, buf)
	}
	out := make([][]byte, np)
	cp := make([]byte, len(buf))
	copy(cp, buf)
	out[rank] = cp
	// Each part is received by name (a missed deadline then names the
	// rank to suspect); the parts are in the mailbox in any order.
	for r := range out {
		if r == root {
			continue
		}
		p, err := c.recv("gather", r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = p.Data
	}
	return out, nil
}

// AllgatherInts gathers one int slice per processor everywhere: a gather
// at 0, then a broadcast of the framed concatenation (encodeAllgather).
// A frame that does not decode is an error on the rank that received it.
// It encodes in the Comm's buffer and decodes into one array.
func (c *Comm) AllgatherInts(vals []int) ([][]int, error) {
	c.ints = AppendInts(c.ints[:0], vals)
	parts, err := c.Gather(0, c.ints)
	if err != nil {
		return nil, err
	}
	var frame []byte
	if c.Rank() == 0 {
		frame = encodeAllgather(parts)
	}
	if frame, err = c.Bcast(0, frame); err != nil {
		return nil, err
	}
	return decodeAllgatherInts(c.Rank(), c.NP(), frame)
}

// encodeAllgather frames the gathered parts: one uint32 length per
// part, then the parts in rank order.
func encodeAllgather(parts [][]byte) []byte {
	total := 4 * len(parts)
	for _, p := range parts {
		total += len(p)
	}
	frame := make([]byte, 4*len(parts), total)
	for i, p := range parts {
		PutUint32(frame, 4*i, uint32(len(p)))
	}
	for _, p := range parts {
		frame = append(frame, p...)
	}
	return frame
}

// decodeAllgatherInts splits an encodeAllgather frame of np int parts,
// as received by rank.  The lengths must cover exactly the rest of the
// frame and each must be whole ints; any other frame is an error, never
// a panic.
func decodeAllgatherInts(rank, np int, frame []byte) ([][]int, error) {
	if len(frame) < 4*np {
		return nil, fmt.Errorf("msg: allgather: rank %d: frame of %d bytes is shorter than its %d lengths", rank, len(frame), np)
	}
	body := 0
	for i := 0; i < np; i++ {
		n := int(GetUint32(frame, 4*i))
		if n%8 != 0 {
			return nil, fmt.Errorf("msg: allgather: rank %d: part %d has %d bytes, not whole ints", rank, i, n)
		}
		body += n
	}
	if body != len(frame)-4*np {
		return nil, fmt.Errorf("msg: allgather: rank %d: lengths sum to %d bytes, frame carries %d", rank, body, len(frame)-4*np)
	}
	out, all := make([][]int, np), DecodeInts(frame[4*np:])
	for i := range out {
		n := int(GetUint32(frame, 4*i)) / 8
		out[i], all = all[:n:n], all[n:]
	}
	return out, nil
}

// Ring is the one all-to-all round order: a barrier-free staggered ring
// in which round r pairs this rank with to = rank+r and from = rank-r, so
// every peer is busy with a different partner.  round is called once per
// remote peer pair, in order, and its first error ends the exchange.  A
// round should send before it receives (sends never block on the
// receiver here), which is what keeps the ring deadlock-free.
func (c *Comm) Ring(round func(to, from int) error) error {
	np, rank := c.NP(), c.Rank()
	for r := 1; r < np; r++ {
		if err := round((rank+r)%np, (rank-r+np)%np); err != nil {
			return err
		}
	}
	return nil
}

// Alltoallv sends send[i] to processor i and returns the NP buffers
// received (recv[j] is from processor j).  nil sends are skipped and the
// self-transfer is a local copy — message counts reflect only real
// traffic, matching how a redistribution executes.
func (c *Comm) Alltoallv(send [][]byte) ([][]byte, error) {
	np, rank := c.NP(), c.Rank()
	if len(send) != np {
		return nil, fmt.Errorf("msg: alltoallv needs %d send buffers, got %d", np, len(send))
	}
	if c.tr != nil {
		defer c.span("alltoallv").End()
	}
	tag := c.nextTag()
	// Peers learn what to expect through an allgather of per-destination
	// sizes (-1 marks "no message"); only real payloads then move, so the
	// payload message counts reflect the actual transfer pattern.
	sizes := make([]int, np)
	for i := range send {
		sizes[i] = len(send[i])
		if send[i] == nil {
			sizes[i] = -1
		}
	}
	allSizes, err := c.AllgatherInts(sizes)
	if err != nil {
		return nil, fmt.Errorf("msg: alltoallv: rank %d: size exchange: %w", rank, err)
	}
	recv := make([][]byte, np)
	if send[rank] != nil {
		recv[rank] = make([]byte, len(send[rank]))
		copy(recv[rank], send[rank])
	}
	err = c.Ring(func(to, from int) error {
		if send[to] != nil {
			if err := c.send("alltoallv", to, tag, send[to]); err != nil {
				return err
			}
		}
		if allSizes[from][rank] >= 0 {
			p, err := c.recv("alltoallv", from, tag)
			if err != nil {
				return err
			}
			recv[from] = p.Data
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recv, nil
}

// BcastInts broadcasts an []int from root and returns it on every rank.
func (c *Comm) BcastInts(root int, vals []int) ([]int, error) {
	return c.BcastIntsInto(root, vals, nil)
}

// BcastIntsInto is BcastInts decoding into dst's storage, grown only when
// it lacks room: a rank that keeps dst allocates nothing for the values
// it receives once dst holds them.
func (c *Comm) BcastIntsInto(root int, vals, dst []int) ([]int, error) {
	var buf []byte
	if c.Rank() == root {
		c.ints = AppendInts(c.ints[:0], vals)
		buf = c.ints
	}
	out, err := c.Bcast(root, buf)
	if err != nil {
		return nil, err
	}
	return DecodeIntsInto(dst, out), nil
}

// MaxInt returns the larger of a and b.
func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SumInt returns a+b.
func SumInt(a, b int) int { return a + b }

// SumF64 returns a+b.
func SumF64(a, b float64) float64 { return a + b }

// MaxF64 returns the larger of a and b.
func MaxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
