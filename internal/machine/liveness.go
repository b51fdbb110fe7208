package machine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/msg"
)

// Liveness has no signal of its own: it is derived from the deadlines the
// run already keeps.  The membership machinery (epoch views, the dead set
// and the probe responders) is on exactly when the retry policy has a
// Timeout.  A receive retried under that policy that misses its deadline
// on a named peer raises a suspicion of the peer (msg.View.Suspect), and
// at most two probes clear or confirm it:
//
//   - The suspecting rank sends a msg.TagProbe frame carrying a fresh
//     8-byte sequence number to the peer's physical endpoint.  On the chan
//     transport the frame lands in the peer's mailbox; on TCP it crosses
//     the peer's loopback socket and the peer's reader goroutine files it
//     there.  Either way the peer's probe responder — a goroutine per
//     endpoint, not the peer's compute loop — takes it and echoes the
//     number back in a msg.TagProbeReply.  A rank asleep in its body, or
//     computing, still answers.  Only the echo of a number of the same
//     suspicion answers a probe: a reply that arrives after its suspicion
//     was settled is skipped, so it cannot clear a later one.
//   - Both frames are sent through the same transport stack as the
//     program's messages: the fault injector, the CRC32C layer, the
//     statistics and the cost model.  A permanent drop,rank=R rule
//     therefore drops R's replies like all its other sends, and R falls
//     silent to every probe.  The responder takes the probe off the wire
//     endpoint beneath the fault and CRC layers, so its idle wait meets
//     no receive-side rule; the prober's wait for the reply meets them
//     all.
//   - A probe unanswered within half the policy's first deadline is sent
//     once more, with a fresh half deadline, and either one's echo
//     answers: a lost reply reads like a death, and a second loss in a row
//     is what tells them apart.  The suspicion waits no longer than one
//     probe of the whole deadline would, and a reply slower than half of
//     it still counts.  No reply confirms the death — unless the
//     suspecting rank's own sends are the ones being lost (the others
//     have confirmed it dead already, or it cannot reach its own
//     responder either): then it is the rank confirmed dead (the
//     fail-stop rule: a rank that finds itself dead leaves with
//     ErrExcluded).  A probe cut short by a closing transport confirms
//     nothing.
//
// Only a confirmed death enters the machine's dead set, which revokes
// every epoch the rank belongs to (ErrEpochRevoked) and feeds Regroup and
// Survivors.  A run that misses no deadline sends no probe.
//
// The dead set is shared by all ranks of the in-process machine, so
// survivors trivially agree on it; a distributed deployment would need a
// membership consensus round here, which is out of scope for this engine
// (the paper's model is a static processor set — liveness exists to drive
// the recovery experiments).

// deadSet is the machine-wide, sticky set of confirmed deaths, indexed
// by physical rank.
type deadSet struct {
	mu   sync.Mutex
	dead []bool
}

func (d *deadSet) mark(r int) {
	d.mu.Lock()
	d.dead[r] = true
	d.mu.Unlock()
}

// snapshot returns a copy of the dead mask.
func (d *deadSet) snapshot() []bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]bool(nil), d.dead...)
}

// firstOf returns the lowest physical rank among phys confirmed dead, or
// -1 when all are live.
func (d *deadSet) firstOf(phys []int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range phys {
		if d.dead[r] {
			return r
		}
	}
	return -1
}

// Survivors returns the ranks not confirmed dead, in rank order, or nil
// when the machine runs without a retry Timeout.  After a Run aborted by
// a permanent rank loss, this is the processor set a recovery run should
// be sized to.
func (m *Machine) Survivors() []int {
	if m.dead == nil {
		return nil
	}
	var out []int
	for r, d := range m.dead.snapshot() {
		if !d {
			out = append(out, r)
		}
	}
	return out
}

// revoked is the error a rank gets once physical rank r is confirmed dead.
func revoked(r int) error {
	return fmt.Errorf("%w: member (physical rank %d) declared dead", ErrEpochRevoked, r)
}

// startResponders starts one probe responder per endpoint.  A responder
// waits for probes on the wire endpoint beneath the fault and CRC layers
// (msg.Wire), so its idle wait meets no receive-side fault rule — it
// neither counts in a schedule nor draws from it, and a persistent
// recverr rule cannot keep it from seeing the transport close — while
// its replies go out through every layer.  It lives as long as the
// transport: it returns when Close (or an SPMD abort) closes it, and
// Close waits for it.
func (m *Machine) startResponders() {
	for r := 0; r < m.np; r++ {
		ep := m.transport.Endpoint(r)
		m.probes.Add(1)
		go func() {
			defer m.probes.Done()
			for {
				p, err := msg.Wire(ep).Recv(msg.AnySource, msg.TagProbe)
				if err != nil {
					return // closed
				}
				// The wire payload is the number, plus the CRC32C trailer
				// when the integrity layer is on.
				seq := p.Data[:min(len(p.Data), probeSeqLen)]
				ep.Send(p.From, msg.TagProbeReply, seq) //nolint:errcheck // a lost reply is what a probe detects
			}
		}()
	}
}

// probeSeqLen is the length of a probe's sequence number.
const probeSeqLen = 8

// probe sends one probe from physical rank by to peer's responder and
// waits d for the echo of a sequence number no older than first — the
// first probe of the suspicion, or this one's own when first is 0 — and
// returns that first number.  Replies to earlier suspicions' probes are
// skipped.  A nil error means peer answered.
func (m *Machine) probe(by, peer int, d time.Duration, first uint64) (uint64, error) {
	ep := m.transport.Endpoint(by)
	seq := m.probeSeq.Add(1)
	if first == 0 {
		first = seq
	}
	var b [probeSeqLen]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	if err := msg.SendRetry(ep, m.retry, m.Tracer(), "probe", peer, msg.TagProbe, b[:]); err != nil {
		return first, err
	}
	deadline := time.Now().Add(d)
	for {
		p, err := ep.RecvTimeout(peer, msg.TagProbeReply, time.Until(deadline))
		if err != nil {
			return first, err
		}
		if len(p.Data) == probeSeqLen && binary.LittleEndian.Uint64(p.Data) >= first {
			return first, nil
		}
	}
}

// suspect settles physical rank by's suspicion of peer, whose deadline it
// missed: nil when peer answers one of two probes (or the transport
// closed under an abort, which the caller's own receive reports), a
// revocation naming the rank confirmed dead otherwise — peer, or by
// itself when by's own sends are the ones being lost: others have
// confirmed it dead already, or it cannot reach its own responder either.
func (m *Machine) suspect(by, peer int) error {
	if r := m.dead.firstOf([]int{by, peer}); r >= 0 {
		return revoked(r)
	}
	var first uint64
	for range 2 { // a probe and, after a lost reply, its retry
		var err error
		first, err = m.probe(by, peer, m.retry.Deadline(0)/2, first)
		if err == nil || isClosedErr(err) {
			return nil
		}
	}
	victim := peer
	if m.dead.firstOf([]int{by}) >= 0 {
		victim = by
	} else if _, err := m.probe(by, by, m.retry.Deadline(0), 0); err != nil {
		if isClosedErr(err) {
			return nil
		}
		victim = by
	}
	m.dead.mark(victim)
	return revoked(victim)
}

// epochComm is physical rank me's collectives handle on an epoch's view
// of members: epoch-folded tags, renumbered ranks, the retry policy, the
// dead-set check before every attempt and the suspicion hook after every
// missed deadline.
func (m *Machine) epochComm(me, epoch int, members []int) *msg.Comm {
	v := msg.NewView(m.transport.Endpoint(me), epoch, members, func() error {
		if r := m.dead.firstOf(members); r >= 0 {
			return revoked(r)
		}
		return nil
	})
	v.SetSuspect(func(peer int) error { return m.suspect(me, peer) })
	c := msg.NewComm(v)
	c.SetRetry(m.retry)
	return c
}
