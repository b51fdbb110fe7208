package msg

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"time"
)

// newBase returns an np-rank chan or TCP transport, closed with the test.
func newBase(t *testing.T, transport string, np int, opts ...Option) Transport {
	t.Helper()
	var tr Transport = NewChanTransport(np, opts...)
	if transport == "tcp" {
		tcp, err := NewTCPTransport(np, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr = tcp
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// layerSends are the two ways a payload goes down a layer: Send, and a
// gathered send — a window put, which hands the layer the byte views of
// its source rect's runs.  Each returns the tag it sent on and the bytes
// it sent.
var layerSends = []struct {
	name string
	send func(ep Endpoint, to, tag int) (int, []byte, error)
}{
	{"Send", func(ep Endpoint, to, tag int) (int, []byte, error) {
		data := []byte("interception")
		return tag, data, ep.Send(to, tag, data)
	}},
	{"put", func(ep Endpoint, to, _ int) (int, []byte, error) {
		w := NewWindow(ep.NP(), "layers", NewStats(ep.NP()), nil)
		data := make([]float64, 12)
		for i := range data {
			data[i] = float64(i) + 0.5
		}
		w.Register(ep.Rank(), data)
		src := Rect{Off: 1, Dims: []RectDim{{Stride: 1, Count: 2}, {Stride: 4, Count: 3}}}
		err := w.PutAsync(NewComm(ep), to, 1, src, RectRun(0, src.Count()))
		return w.tag(1), PackRect(nil, data, src), err
	}},
}

// layerRecvs are the two receive forms every layer must run its
// transform under.
var layerRecvs = []struct {
	name string
	recv func(ep Endpoint, from, tag int) (Packet, error)
}{
	{"Recv", func(ep Endpoint, from, tag int) (Packet, error) { return ep.Recv(from, tag) }},
	{"RecvTimeout", func(ep Endpoint, from, tag int) (Packet, error) { return ep.RecvTimeout(from, tag, 5*time.Second) }},
}

// TestLayerInterception: each decorator — the fault layer, the integrity
// layer and a View — applies its transform to Send, to a gathered send,
// to Recv and to RecvTimeout, on both transports: nothing the decorators
// embed or forward passes a message by them.
func TestLayerInterception(t *testing.T) {
	const np, tag = 3, 40
	for _, transport := range []string{"chan", "tcp"} {
		for _, s := range layerSends {
			t.Run(transport+"/fault/"+s.name, func(t *testing.T) {
				ft := NewFaultTransport(newBase(t, transport, np), &FaultPlan{
					Rules: []FaultRule{{Kind: FaultSendErr, Rank: 0, Peer: -1}},
				})
				if _, _, err := s.send(ft.Endpoint(0), 1, tag); !errors.Is(err, ErrInjected) {
					t.Fatalf("senderr rule did not fire: %v", err)
				}
			})
			t.Run(transport+"/integrity/"+s.name, func(t *testing.T) {
				it := NewIntegrityTransport(newBase(t, transport, np))
				wtag, data, err := s.send(it.Endpoint(0), 1, tag)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Wire(it.Endpoint(1)).Recv(0, wtag)
				if err != nil {
					t.Fatal(err)
				}
				sum := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
				if n := len(data); len(p.Data) != n+4 || !bytes.Equal(p.Data[:n], data) || GetUint32(p.Data, n) != sum {
					t.Fatalf("wire carries %x, want %x and its CRC32C %08x", p.Data, data, sum)
				}
			})
			t.Run(transport+"/view/"+s.name, func(t *testing.T) {
				base := newBase(t, transport, np)
				phys := []int{2, 0, 1}
				v := NewView(base.Endpoint(2), 3, phys, nil) // view rank 0
				wtag, data, err := s.send(v, 1, tag)
				if err != nil {
					t.Fatal(err)
				}
				p, err := base.Endpoint(0).Recv(2, FoldTag(3, wtag))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p.Data, data) {
					t.Fatalf("wire carries %x, want %x", p.Data, data)
				}
			})
		}
		for _, r := range layerRecvs {
			t.Run(transport+"/fault/"+r.name, func(t *testing.T) {
				ft := NewFaultTransport(newBase(t, transport, np), &FaultPlan{
					Rules: []FaultRule{{Kind: FaultRecvErr, Rank: 1, Peer: -1}},
				})
				if err := ft.Endpoint(0).Send(1, tag, []byte{7}); err != nil {
					t.Fatal(err)
				}
				if _, err := r.recv(ft.Endpoint(1), 0, tag); !errors.Is(err, ErrInjected) {
					t.Fatalf("recverr rule did not fire: %v", err)
				}
				if p, err := Wire(ft.Endpoint(1)).Recv(0, tag); err != nil || !bytes.Equal(p.Data, []byte{7}) {
					t.Fatalf("message not left in the mailbox: %v, %v", p, err)
				}
			})
			t.Run(transport+"/integrity/"+r.name, func(t *testing.T) {
				it := NewIntegrityTransport(NewFaultTransport(newBase(t, transport, np), &FaultPlan{
					Rules: []FaultRule{{Kind: FaultCorrupt, Rank: 0, Peer: -1}},
				}))
				if err := it.Endpoint(0).Send(1, tag, []byte("flip me")); err != nil {
					t.Fatal(err)
				}
				if _, err := r.recv(it.Endpoint(1), 0, tag); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("bitflip below the integrity layer not caught: %v", err)
				}
			})
			t.Run(transport+"/view/"+r.name, func(t *testing.T) {
				base := newBase(t, transport, np)
				phys := []int{2, 0, 1}
				if err := base.Endpoint(2).Send(0, FoldTag(3, tag), []byte{9}); err != nil {
					t.Fatal(err)
				}
				p, err := r.recv(NewView(base.Endpoint(0), 3, phys, nil), 0, tag)
				if err != nil {
					t.Fatal(err)
				}
				if p.From != 0 || p.Tag != tag || !bytes.Equal(p.Data, []byte{9}) {
					t.Fatalf("packet %+v: want From 0 (physical 2), Tag %d, Data [9]", p, tag)
				}
			})
		}
	}
}

// stackRun is what one scripted exchange observed.
type stackRun struct {
	packets []Packet
	stats   Snapshot
	clocks  []float64
}

// runScript runs one fixed exchange over eps: small, large (writev on
// TCP), empty, self and gathered messages, received by name, by
// AnySource, under Recv and under RecvTimeout.
func runScript(t *testing.T, tr Transport, eps []Endpoint) stackRun {
	t.Helper()
	big := make([]byte, 3*tcpCoalesce+5)
	for i := range big {
		big[i] = byte(i*13 + 5)
	}
	w := NewWindow(len(eps), "script", tr.Stats(), tr.Cost())
	data := make([]float64, 40)
	for i := range data {
		data[i] = float64(i) * 0.25
	}
	w.Register(0, data)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(eps[0].Send(1, 5, []byte("123456789")))
	check(eps[1].Send(2, 6, big))
	check(eps[2].Send(0, 7, nil))
	check(eps[1].Send(1, 8, []byte("self")))
	src := Rect{Off: 3, Dims: []RectDim{{Stride: 1, Count: 4}, {Stride: 10, Count: 3}}}
	check(w.PutAsync(NewComm(eps[0]), 2, 2, src, RectRun(0, src.Count())))
	var run stackRun
	for _, r := range []struct {
		ep       Endpoint
		from, tg int
		timed    bool
	}{
		{eps[1], 0, 5, false}, {eps[2], 1, 6, true}, {eps[0], AnySource, 7, false},
		{eps[1], 1, 8, true}, {eps[2], 0, w.tag(2), true},
	} {
		var p Packet
		var err error
		if r.timed {
			p, err = r.ep.RecvTimeout(r.from, r.tg, 5*time.Second)
		} else {
			p, err = r.ep.Recv(r.from, r.tg)
		}
		check(err)
		if p.Tag != r.tg {
			t.Fatalf("receive on tag %d returned tag %d", r.tg, p.Tag)
		}
		// A window's tags differ from window to window: keep the order.
		run.packets = append(run.packets, Packet{From: p.From, Tag: len(run.packets), Data: bytes.Clone(p.Data)})
	}
	run.stats = tr.Stats().Snapshot()
	for r := range eps {
		run.clocks = append(run.clocks, tr.Cost().Clock(r))
	}
	return run
}

// TestStackConformance: one scripted exchange over every stack — {chan,
// TCP} × {bare, fault with a rule that never fires, integrity,
// fault+integrity} × {plain, View} — delivers identical packets.  The
// stacks without the integrity layer give identical Stats snapshots and
// cost clocks, and so do those with it, whose byte counts are the
// others' plus the 4-byte trailer of every message.
func TestStackConformance(t *testing.T) {
	const np = 3
	never := &FaultPlan{Rules: []FaultRule{{Kind: FaultSendErr, Rank: -1, Peer: -1, After: 1 << 30}}}
	runs := map[bool]stackRun{} // by integrity, the first stack's run
	var plain stackRun
	for _, transport := range []string{"chan", "tcp"} {
		for _, layers := range []string{"bare", "fault", "integrity", "fault+integrity"} {
			for _, view := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/view=%v", transport, layers, view)
				tr := newBase(t, transport, np, WithCost(NewCostModel(np, 1e-4, 1e-8)))
				if layers == "fault" || layers == "fault+integrity" {
					tr = NewFaultTransport(tr, never)
				}
				integrity := layers == "integrity" || layers == "fault+integrity"
				if integrity {
					tr = NewIntegrityTransport(tr)
				}
				eps := make([]Endpoint, np)
				for r := range eps {
					eps[r] = tr.Endpoint(r)
					if view {
						eps[r] = NewView(eps[r], 1, []int{0, 1, 2}, nil)
					}
				}
				got := runScript(t, tr, eps)
				if plain.packets == nil {
					plain = got
				}
				if !reflect.DeepEqual(got.packets, plain.packets) {
					t.Errorf("%s: packets differ from chan/bare/plain's", name)
				}
				want, ok := runs[integrity]
				if !ok {
					runs[integrity], want = got, got
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("%s: stats %+v, want %+v", name, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.clocks, want.clocks) {
					t.Errorf("%s: cost clocks %v, want %v", name, got.clocks, want.clocks)
				}
			}
		}
	}
	bare, summed := runs[false].stats, runs[true].stats
	for r := 0; r < np; r++ {
		if summed.MsgsSent[r] != bare.MsgsSent[r] || summed.BytesSent[r] != bare.BytesSent[r]+4*bare.MsgsSent[r] {
			t.Errorf("rank %d: integrity sends %d msgs of %d bytes, bare %d of %d (want 4 more bytes a message)",
				r, summed.MsgsSent[r], summed.BytesSent[r], bare.MsgsSent[r], bare.BytesSent[r])
		}
	}
}
