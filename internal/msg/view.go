package msg

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// epochShift is the bit position where the membership epoch is folded
// into wire tags.  All reserved tag spaces (TagMemberBase through
// TagCollBase plus the unbounded collective sequence) live far below
// bit 40, and tags are 8 bytes on the TCP wire, so folding never
// collides with an unfolded tag.
const epochShift = 40

// MaxEpoch is the largest membership epoch that fits in a folded wire
// tag: epochs occupy bits epochShift..62, and bit 63 must stay clear
// because a negative tag is the receive wildcard.  An epoch beyond this
// would silently collide with (or wildcard-match!) other epochs' tags,
// so the membership layer refuses to transition past it — see
// CheckEpoch.
const MaxEpoch = 1<<(63-epochShift) - 1

// CheckEpoch reports whether a membership epoch can be represented in
// folded wire tags.  Regroup/join transitions call it before installing
// a new epoch so the capacity limit fails loudly at the membership
// layer instead of as tag corruption deep in a collective.
func CheckEpoch(epoch int) error {
	if epoch < 0 || epoch > MaxEpoch {
		return fmt.Errorf("msg: membership epoch %d outside the foldable range 0..%d (folded tags would collide or go negative)", epoch, MaxEpoch)
	}
	return nil
}

// FoldTag folds a membership epoch into a wire tag.  Epoch 0 is the
// identity, so pre-regroup traffic is byte-compatible with a machine
// that never heard of epochs.  Wildcards (negative tags) are returned
// unchanged.  Epochs beyond MaxEpoch panic: a fold that flips bit 63
// produces a negative tag — the wildcard — and would match *anything*,
// so this is a programming error the transition layer must have caught
// with CheckEpoch.
func FoldTag(epoch, tag int) int {
	if tag < 0 || epoch == 0 {
		return tag
	}
	if epoch < 0 || epoch > MaxEpoch {
		panic(fmt.Sprintf("msg: FoldTag epoch %d outside the foldable range 0..%d", epoch, MaxEpoch))
	}
	return tag | epoch<<epochShift
}

// UnfoldTag strips the folded epoch from a wire tag.
func UnfoldTag(tag int) int {
	if tag < 0 {
		return tag
	}
	return tag & (1<<epochShift - 1)
}

// View is an Endpoint restricted to a membership epoch's survivor set:
// ranks are renumbered to the compacted survivor numbering (view rank i
// is physical rank Phys[i]) and every tag is folded with the epoch, so
// stragglers from a revoked epoch never match a receive on the current
// one — they rot unconsumed in the mailbox instead of corrupting a
// collective.
//
// A View may carry a liveness check; SendRetry/RecvRetry consult it
// before every attempt, so an operation blocked on a peer that has since
// been declared dead aborts with the checker's error (typically
// machine.ErrEpochRevoked) instead of timing out attempt by attempt.  It
// may also carry a suspicion hook (SetSuspect), which RecvRetry calls
// when an attempt on a named peer misses its deadline.
type View struct {
	inner   Endpoint
	epoch   int
	phys    []int // view rank -> physical rank
	virt    []int // physical rank -> view rank (-1: not a member)
	check   func() error
	suspect func(phys int) error
}

// NewView wraps inner for the given epoch and member set.  phys lists
// the members' physical ranks in view-rank order and must contain
// inner's own physical rank.  check may be nil.
func NewView(inner Endpoint, epoch int, phys []int, check func() error) *View {
	v := &View{inner: inner, epoch: epoch, phys: phys, check: check}
	v.virt = make([]int, inner.NP())
	for i := range v.virt {
		v.virt[i] = -1
	}
	for i, p := range phys {
		v.virt[p] = i
	}
	if v.virt[inner.Rank()] < 0 {
		panic(fmt.Sprintf("msg: view epoch %d excludes its own physical rank %d", epoch, inner.Rank()))
	}
	return v
}

// Phys returns the physical rank of view rank r.
func (v *View) Phys(r int) int { return v.phys[r] }

// Rank returns this endpoint's rank in the view's compacted numbering.
func (v *View) Rank() int { return v.virt[v.inner.Rank()] }

// NP returns the number of members of the view.
func (v *View) NP() int { return len(v.phys) }

// Tracer returns the wrapped endpoint's tracer.
func (v *View) Tracer() *trace.Tracer { return v.inner.Tracer() }

// SharedMemory forwards the one-sided fast-path capability of the
// wrapped endpoint (offers over a view keep the token path).
func (v *View) SharedMemory() bool { return sharedMemory(v.inner) }

// CheckLive reports whether the view's epoch is still valid; a non-nil
// error means a member has been declared dead and the epoch is revoked.
func (v *View) CheckLive() error {
	if v.check == nil {
		return nil
	}
	return v.check()
}

// SetSuspect installs the hook Suspect calls with the suspected peer's
// physical rank: nil means the peer answered, an error that it is dead
// (typically wrapping machine.ErrEpochRevoked).
func (v *View) SetSuspect(f func(phys int) error) { v.suspect = f }

// Suspect reports that a receive from view rank r missed its deadline.
// Without a hook, or for a rank outside the view, it answers nil.
func (v *View) Suspect(r int) error {
	if v.suspect == nil || r < 0 || r >= len(v.phys) {
		return nil
	}
	return v.suspect(v.phys[r])
}

func (v *View) peer(r int) (int, error) {
	if r == AnySource {
		return AnySource, nil
	}
	if r < 0 || r >= len(v.phys) {
		return 0, fmt.Errorf("msg: view epoch %d: rank %d out of range (np=%d)", v.epoch, r, len(v.phys))
	}
	return v.phys[r], nil
}

// translate maps a delivered packet back into view coordinates.  A
// sender outside the member set cannot match (its tags carry a
// different epoch fold), so the translation is always defined.
func (v *View) translate(p Packet) Packet {
	p.From = v.virt[p.From]
	p.Tag = UnfoldTag(p.Tag)
	return p
}

// Send delivers data to view rank `to` with the epoch-folded tag.
func (v *View) Send(to, tag int, data []byte) error {
	return v.sendGather(to, tag, gather{one: data})
}

// sendGather implements gatherSender: Send for a payload given as pieces.
func (v *View) sendGather(to, tag int, g gather) error {
	pto, err := v.peer(to)
	if err != nil {
		return err
	}
	return sendGather(v.inner, pto, FoldTag(v.epoch, tag), g)
}

// Recv receives a message from view rank `from` on the epoch-folded tag.
func (v *View) Recv(from, tag int) (Packet, error) { return v.recv(from, tag, 0) }

// RecvTimeout is Recv with a deadline.
func (v *View) RecvTimeout(from, tag int, d time.Duration) (Packet, error) {
	return v.recv(from, tag, deadline(d))
}

// recv receives from view rank from on the folded tag, waiting at most d
// when d > 0, and translates the packet into view coordinates.
func (v *View) recv(from, tag int, d time.Duration) (Packet, error) {
	pfrom, err := v.peer(from)
	if err != nil {
		return Packet{}, err
	}
	p, err := receive(v.inner, pfrom, FoldTag(v.epoch, tag), d)
	if err != nil {
		return p, err
	}
	return v.translate(p), nil
}
