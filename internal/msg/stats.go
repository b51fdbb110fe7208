package msg

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Stats collects per-processor traffic counters.  The experiment harnesses
// use these to reproduce the paper's §4 message-cost arguments ("2 messages
// per processor, each of size N" vs "4 messages of size N/p").
//
// Counters are updated with atomics so they can be read while the SPMD
// program runs; Snapshot gives a consistent-enough view for reporting after
// a barrier.  Every message a transport carries counts, the membership
// layer's probes included; a run that misses no deadline sends no probe,
// so its counts are the program's own.
type Stats struct {
	np        int
	msgsSent  []atomic.Int64
	bytesSent []atomic.Int64
	msgsRecv  []atomic.Int64
	bytesRecv []atomic.Int64
	// dataSent counts only messages with a non-empty payload — the "data
	// messages" of the paper's cost arguments, excluding zero-byte
	// synchronization traffic (barriers).
	dataSent []atomic.Int64
	// wireCur/wirePeak track resident wire-buffer bytes per rank: packed
	// send buffers and received-but-not-yet-unpacked payloads held by the
	// data-movement layer.  The peak is the measured counterpart of the
	// redistribution planner's peak-bytes estimate — tests assert the
	// memory bound against this gauge rather than trusting the model.
	wireCur  []atomic.Int64
	wirePeak []atomic.Int64
}

// NewStats creates a collector for np processors.
func NewStats(np int) *Stats {
	return &Stats{
		np:        np,
		msgsSent:  make([]atomic.Int64, np),
		bytesSent: make([]atomic.Int64, np),
		msgsRecv:  make([]atomic.Int64, np),
		bytesRecv: make([]atomic.Int64, np),
		dataSent:  make([]atomic.Int64, np),
		wireCur:   make([]atomic.Int64, np),
		wirePeak:  make([]atomic.Int64, np),
	}
}

// WireAcquire records n wire-buffer bytes becoming resident on rank and
// updates the rank's high-water mark.
func (s *Stats) WireAcquire(rank int, n int64) {
	cur := s.wireCur[rank].Add(n)
	for {
		peak := s.wirePeak[rank].Load()
		if cur <= peak || s.wirePeak[rank].CompareAndSwap(peak, cur) {
			return
		}
	}
}

// WireRelease records n wire-buffer bytes leaving residency on rank.
func (s *Stats) WireRelease(rank int, n int64) {
	s.wireCur[rank].Add(-n)
}

// PeakWireBytes returns the high-water mark of resident wire-buffer
// bytes over all ranks since the last Reset/ResetWirePeak.
func (s *Stats) PeakWireBytes() int64 {
	var m int64
	for i := 0; i < s.np; i++ {
		if p := s.wirePeak[i].Load(); p > m {
			m = p
		}
	}
	return m
}

// PeakWireBytesRank returns rank's high-water mark of resident
// wire-buffer bytes.
func (s *Stats) PeakWireBytesRank(rank int) int64 { return s.wirePeak[rank].Load() }

// ResetWirePeak rewinds every rank's high-water mark to its current
// residency (so a phase can be measured in isolation without disturbing
// the traffic counters).
func (s *Stats) ResetWirePeak() {
	for i := 0; i < s.np; i++ {
		s.wirePeak[i].Store(s.wireCur[i].Load())
	}
}

// OnSend records a message of n bytes sent by from to to.
func (s *Stats) OnSend(from, to, n int) {
	s.msgsSent[from].Add(1)
	s.bytesSent[from].Add(int64(n))
	if n > 0 {
		s.dataSent[from].Add(1)
	}
	_ = to
}

// Sent returns the data messages and payload bytes rank has sent so far.
// Only rank's own sends move them — a shared-memory window offer is one
// of them, its token booked at the send as the payload it stands for —
// and only darray's simulated one-sided element accesses (Array.Get and
// Array.Set on a remote owner) credit a peer, so a rank may difference
// two readings around a phase of its own without meeting anyone.
func (s *Stats) Sent(rank int) (msgs, bytes int64) {
	return s.dataSent[rank].Load(), s.bytesSent[rank].Load()
}

// OnRecv records a message of n bytes received by rank from from.
func (s *Stats) OnRecv(rank, from, n int) {
	s.msgsRecv[rank].Add(1)
	s.bytesRecv[rank].Add(int64(n))
	_ = from
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	NP        int
	MsgsSent  []int64
	BytesSent []int64
	MsgsRecv  []int64
	BytesRecv []int64
	DataSent  []int64
}

// newSnapshot carves the five counter slices out of one backing array —
// snapshots are taken per step in instrumented loops, so the allocation
// count matters.
func newSnapshot(np int) Snapshot {
	back := make([]int64, 5*np)
	return Snapshot{
		NP:        np,
		MsgsSent:  back[0*np : 1*np],
		BytesSent: back[1*np : 2*np],
		MsgsRecv:  back[2*np : 3*np],
		BytesRecv: back[3*np : 4*np],
		DataSent:  back[4*np : 5*np],
	}
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() Snapshot {
	sn := newSnapshot(s.np)
	for i := 0; i < s.np; i++ {
		sn.MsgsSent[i] = s.msgsSent[i].Load()
		sn.BytesSent[i] = s.bytesSent[i].Load()
		sn.MsgsRecv[i] = s.msgsRecv[i].Load()
		sn.BytesRecv[i] = s.bytesRecv[i].Load()
		sn.DataSent[i] = s.dataSent[i].Load()
	}
	return sn
}

// TotalDataMsgs returns the total number of non-empty messages sent.
func (sn Snapshot) TotalDataMsgs() int64 {
	var t int64
	for _, v := range sn.DataSent {
		t += v
	}
	return t
}

// TotalMsgs returns the total number of messages sent.
func (sn Snapshot) TotalMsgs() int64 {
	var t int64
	for _, v := range sn.MsgsSent {
		t += v
	}
	return t
}

// TotalBytes returns the total number of payload bytes sent.
func (sn Snapshot) TotalBytes() int64 {
	var t int64
	for _, v := range sn.BytesSent {
		t += v
	}
	return t
}

// MaxMsgsPerProc returns the maximum number of messages sent by any single
// processor.
func (sn Snapshot) MaxMsgsPerProc() int64 {
	var m int64
	for _, v := range sn.MsgsSent {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxBytesPerProc returns the maximum number of bytes sent by any single
// processor.
func (sn Snapshot) MaxBytesPerProc() int64 {
	var m int64
	for _, v := range sn.BytesSent {
		if v > m {
			m = v
		}
	}
	return m
}

// Sub returns the counter deltas sn - base (for measuring a program phase).
func (sn Snapshot) Sub(base Snapshot) Snapshot {
	at := func(s []int64, i int) int64 {
		if s == nil {
			return 0
		}
		return s[i]
	}
	out := newSnapshot(sn.NP)
	for i := 0; i < sn.NP; i++ {
		out.MsgsSent[i] = at(sn.MsgsSent, i) - at(base.MsgsSent, i)
		out.BytesSent[i] = at(sn.BytesSent, i) - at(base.BytesSent, i)
		out.MsgsRecv[i] = at(sn.MsgsRecv, i) - at(base.MsgsRecv, i)
		out.BytesRecv[i] = at(sn.BytesRecv, i) - at(base.BytesRecv, i)
		out.DataSent[i] = at(sn.DataSent, i) - at(base.DataSent, i)
	}
	return out
}

func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d bytes=%d maxMsgs/proc=%d maxBytes/proc=%d",
		sn.TotalMsgs(), sn.TotalBytes(), sn.MaxMsgsPerProc(), sn.MaxBytesPerProc())
	return b.String()
}
