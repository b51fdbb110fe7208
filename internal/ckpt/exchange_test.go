package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/pario"
)

// exchangeArrays declares the two arrays of the exchange tests on ctx's
// machine: a 13×9 grid with its rows blocked (every rank holds a part of
// every stripe, as ADI does at a checkpoint) and a 29-vector CYCLIC(3).
func exchangeArrays(ctx *machine.Ctx, np int) []*darray.Array {
	tg := ctx.Machine().ProcsDim("$X", np).Whole()
	domA, domB := index.Dim(13, 9), index.Dim(29)
	a := darray.New(ctx, "A", domA, dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), domA, tg))
	b := darray.New(ctx, "B", domB, dist.MustNew(dist.NewType(dist.CyclicDim(3)), domB, tg))
	a.FillFunc(ctx, fill)
	b.FillFunc(ctx, fill)
	return []*darray.Array{a, b}
}

// referenceStripe builds stripe s's file image point by point: header,
// then per array the count and fill's value at every point of the
// array's slab in canonical order.
func referenceStripe(doms []index.Domain, ns, epoch, s int) []byte {
	var b []byte
	for _, v := range []uint32{stripeMagic, Version, uint32(epoch), uint32(s), uint32(len(doms))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, dom := range doms {
		g := pario.StripeGrids(dom, ns)[s]
		b = binary.LittleEndian.AppendUint32(b, uint32(g.Count()))
		g.ForEach(func(p index.Point) bool {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fill(p)))
			return true
		})
	}
	return b
}

// TestSaveStripeExchangeCounts: one SaveOpts, on chan and on TCP, writes
// stripe and parity files byte-identical to images assembled here point
// by point (same header, same canonical order, same zero padding), records
// their sizes and checksums in the manifest, and moves exactly the
// messages and bytes counted below.
func TestSaveStripeExchangeCounts(t *testing.T) {
	const np, ns = 4, 4
	doms := []index.Domain{index.Dim(13, 9), index.Dim(29)}
	// The streamed exchange behind a size allgather moved 42 data messages
	// and 3252 bytes; dropping the allgather (a gather of 3 messages of 32
	// bytes and a broadcast of 3 of 144) left 36 and 2724.  Then the two
	// agreements after the checksum gather (each an allreduce: 3 + 3
	// messages of 8 bytes) became one verdict broadcast (3 messages of 8
	// bytes), with each rank's outcome riding in the gather: 27 and 2652.
	// The parity fold's 3 partials (P − 1) are 3 of those messages.
	const wantMsgs, wantBytes = 42 - 6 - (12 - 3), 3252 - (3*32 + 3*144) - (12-3)*8
	for _, transport := range []string{"chan", "tcp"} {
		dir := t.TempDir()
		m := newMachine(t, np, transport)
		var moved msg.Snapshot
		err := m.Run(func(ctx *machine.Ctx) error {
			arrays := exchangeArrays(ctx, np)
			// Barriers carry no payload, so bracketing the save with them
			// leaves data messages and bytes those of the save alone.
			if err := ctx.Barrier(); err != nil {
				return err
			}
			var before msg.Snapshot
			if ctx.Rank() == 0 {
				before = m.Transport().Stats().Snapshot()
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			if _, err := SaveOpts(ctx, dir, arrays, nil, Options{}); err != nil {
				return err
			}
			if err := ctx.Barrier(); err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				moved = m.Transport().Stats().Snapshot().Sub(before)
			}
			return nil
		})
		m.Close()
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		if moved.TotalDataMsgs() != wantMsgs || moved.TotalBytes() != wantBytes {
			t.Errorf("%s: save moved %d data messages and %d bytes, want %d and %d",
				transport, moved.TotalDataMsgs(), moved.TotalBytes(), wantMsgs, wantBytes)
		}

		epochDir := filepath.Join(dir, epochDirName(0))
		var man Manifest
		raw, err := os.ReadFile(manifestPath(epochDir))
		if err == nil {
			err = json.Unmarshal(raw, &man)
		}
		if err != nil {
			t.Fatalf("%s: manifest: %v", transport, err)
		}
		var parity []byte
		for s := 0; s < ns; s++ {
			want := referenceStripe(doms, ns, 0, s)
			got, err := os.ReadFile(filepath.Join(epochDir, stripeFileName(s)))
			if err != nil {
				t.Fatalf("%s: %v", transport, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: stripe %d differs from the point-by-point image", transport, s)
			}
			if fm := man.Stripes[s]; fm.Size != int64(len(want)) || fm.CRC != crc32.ChecksumIEEE(want) {
				t.Errorf("%s: manifest records stripe %d as %d bytes crc %08x, image is %d bytes crc %08x",
					transport, s, fm.Size, fm.CRC, len(want), crc32.ChecksumIEEE(want))
			}
			if len(want) > len(parity) {
				parity = append(parity, make([]byte, len(want)-len(parity))...)
			}
			for i, b := range want {
				parity[i] ^= b
			}
		}
		got, err := os.ReadFile(filepath.Join(epochDir, parityFileName()))
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		if !bytes.Equal(got, parity) {
			t.Errorf("%s: parity file differs from the XOR of the zero-padded images", transport)
		}
		if man.Parity == nil || man.Parity.Size != int64(len(parity)) || man.Parity.CRC != crc32.ChecksumIEEE(parity) {
			t.Errorf("%s: manifest parity entry %+v does not describe the parity image", transport, man.Parity)
		}
	}
}

// TestStripeImageShortPayload: a payload that is not the size the
// descriptors predict is an error naming stripe, source and both sizes —
// it was a slice-bounds panic in assembleStripe — and leaves the image
// untouched.
func TestStripeImageShortPayload(t *testing.T) {
	const np = 4
	m := machine.New(np)
	defer m.Close()
	err := m.Run(func(ctx *machine.Ctx) error {
		if ctx.Rank() != 0 {
			exchangeArrays(ctx, np)
			return nil
		}
		arrays := exchangeArrays(ctx, np)
		stripes := make([][]index.Grid, len(arrays))
		for i, a := range arrays {
			stripes[i] = pario.StripeGrids(a.Domain(), np)
		}
		im := newStripeImage(arrays, stripes, 0, 1, np)
		clean := bytes.Clone(im.buf)
		want := im.expect(2)
		if want == 0 {
			t.Fatal("rank 2 holds nothing of stripe 1")
		}
		for _, n := range []int{0, want - 8, want + 8} {
			err := im.place(2, make([]byte, n))
			if err == nil || !strings.Contains(err.Error(), "stripe 1: payload from rank 2 is") {
				t.Errorf("place of %d bytes for %d: %v", n, want, err)
			}
		}
		if !bytes.Equal(im.buf, clean) {
			t.Error("a refused payload changed the image")
		}
		if err := im.place(2, make([]byte, want)); err != nil {
			t.Errorf("place of the exact size: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// truncTransport halves the first non-empty message rank from sends to
// rank to, after arm, on a tag that match selects: a peer whose payload is
// shorter than its descriptors predict.
type truncTransport struct {
	msg.Transport
	from, to int
	match    func(tag int) bool
	armed    atomic.Bool
}

type truncEndpoint struct {
	msg.Endpoint
	t *truncTransport
}

func (t *truncTransport) Endpoint(r int) msg.Endpoint {
	ep := t.Transport.Endpoint(r)
	if r != t.from {
		return ep
	}
	return &truncEndpoint{ep, t}
}

func (e *truncEndpoint) Send(to, tag int, data []byte) error {
	if to == e.t.to && len(data) > 0 && e.t.match(msg.UnfoldTag(tag)) && e.t.armed.CompareAndSwap(true, false) {
		data = data[:len(data)/2]
	}
	return e.Endpoint.Send(to, tag, data)
}

// saveTruncated runs one 4-rank save in which rank 2's first message to
// rank 1 on a tag match selects arrives halved, and checks that the save
// fails on every rank — rank 1 with an error matching want, the others
// by agreement — without a panic, without a hang, and without committing
// an epoch.
func saveTruncated(t *testing.T, match func(tag int) bool, want *regexp.Regexp) {
	t.Helper()
	const np = 4
	dir := t.TempDir()
	tt := &truncTransport{Transport: msg.NewChanTransport(np), from: 2, to: 1, match: match}
	m := machine.New(np, machine.WithTransport(tt))
	defer m.Close()
	errs := make([]error, np)
	err := m.Run(func(ctx *machine.Ctx) error {
		arrays := exchangeArrays(ctx, np)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if ctx.Rank() == 2 {
			tt.armed.Store(true)
		}
		_, errs[ctx.Rank()] = SaveOpts(ctx, dir, arrays, nil, Options{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		switch {
		case err == nil:
			t.Errorf("rank %d: save succeeded", r)
		case r == 1 && !want.MatchString(err.Error()):
			t.Errorf("rank 1: %v", err)
		case r != 1 && !strings.Contains(err.Error(), "a peer rank failed"):
			t.Errorf("rank %d: %v", r, err)
		}
	}
	if tt.armed.Load() {
		t.Error("no message was truncated")
	}
	if epochs, err := epochsIn(pario.OS{}, dir); err != nil || len(epochs) != 0 {
		t.Errorf("epochs after a failed save: %v (%v)", epochs, err)
	}
}

// TestSaveShortPayloadFailsEpoch: rank 2's part of stripe 1 — the only
// payload rank 2 sends rank 1 on a collective tag — arrives short.
func TestSaveShortPayloadFailsEpoch(t *testing.T) {
	saveTruncated(t, func(tag int) bool { return tag >= msg.TagCollBase },
		regexp.MustCompile(`ckpt: stripe 1: payload from rank 2 is \d+ bytes, want \d+`))
}

// TestSaveShortPartialFailsEpoch: rank 2's parity partial arrives short at
// rank 1, its parent in the fold tree rooted at rank 3 (rank 2 is a leaf
// and sends before the exchange).  Rank 1 still merges and forwards, so
// the root is not left waiting.
func TestSaveShortPartialFailsEpoch(t *testing.T) {
	saveTruncated(t, func(tag int) bool { return tag == parityTag },
		regexp.MustCompile(`ckpt: parity fold: \d+ bytes from rank 2, want \d+`))
}
