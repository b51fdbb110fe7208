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

// exchangeArrays declares the two arrays of the save tests on ctx's
// machine: a 13×9 grid with its rows blocked (as ADI leaves it at a
// checkpoint) and a 29-vector CYCLIC(3).
func exchangeArrays(ctx *machine.Ctx, np int) []*darray.Array {
	tg := ctx.Machine().ProcsDim("$X", np).Whole()
	domA, domB := index.Dim(13, 9), index.Dim(29)
	a := darray.New(ctx, "A", domA, dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), domA, tg))
	b := darray.New(ctx, "B", domB, dist.MustNew(dist.NewType(dist.CyclicDim(3)), domB, tg))
	a.FillFunc(ctx, fill)
	b.FillFunc(ctx, fill)
	return []*darray.Array{a, b}
}

// exchangeDists replays exchangeArrays' distributions without a machine.
func exchangeDists(t testing.TB, np int) []*dist.Distribution {
	t.Helper()
	a, errA := replay(DistMeta{Dims: []DimMeta{{Kind: "BLOCK"}, {Kind: ":"}}, TargetExtents: []int{np}}, index.Dim(13, 9))
	b, errB := replay(DistMeta{Dims: []DimMeta{{Kind: "CYCLIC", K: 3}}, TargetExtents: []int{np}}, index.Dim(29))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	return []*dist.Distribution{a, b}
}

// referenceRankFile builds rank r's file point by point from the
// descriptors: header, then per array the count and fill's value at every
// point r owns as the primary, in canonical order.
func referenceRankFile(dists []*dist.Distribution, epoch, r int) []byte {
	var b []byte
	for _, v := range []uint32{fileMagic, Version, uint32(epoch), uint32(r), uint32(len(dists))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, d := range dists {
		if !d.IsPrimaryRank(r) {
			b = binary.LittleEndian.AppendUint32(b, 0)
			continue
		}
		g := d.LocalGrid(r)
		b = binary.LittleEndian.AppendUint32(b, uint32(g.Count()))
		if g.Empty() {
			continue
		}
		g.ForEach(func(p index.Point) bool {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fill(p)))
			return true
		})
	}
	return b
}

// checkEpochFiles compares an epoch's rank files with the point-by-point
// references and parity.bin with their zero-padded XOR, and checks that
// the manifest records every file's size and checksum.
func checkEpochFiles(t *testing.T, name, epochDir string, want [][]byte) {
	t.Helper()
	var man Manifest
	raw, err := os.ReadFile(manifestPath(epochDir))
	if err == nil {
		err = json.Unmarshal(raw, &man)
	}
	if err != nil {
		t.Fatalf("%s: manifest: %v", name, err)
	}
	if len(man.Files) != len(want) {
		t.Fatalf("%s: manifest lists %d rank files, want %d", name, len(man.Files), len(want))
	}
	var parity []byte
	for r, w := range want {
		got, err := os.ReadFile(filepath.Join(epochDir, rankFileName(r)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("%s: rank file %d differs from the point-by-point image", name, r)
		}
		if fm := man.Files[r]; fm.Size != int64(len(w)) || fm.CRC != crc32.ChecksumIEEE(w) {
			t.Errorf("%s: manifest records rank file %d as %d bytes crc %08x, image is %d bytes crc %08x",
				name, r, fm.Size, fm.CRC, len(w), crc32.ChecksumIEEE(w))
		}
		if len(w) > len(parity) {
			parity = append(parity, make([]byte, len(w)-len(parity))...)
		}
		pario.XorInto(parity, w)
	}
	got, err := os.ReadFile(filepath.Join(epochDir, parityFileName()))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, parity) {
		t.Errorf("%s: parity.bin is not the XOR of the zero-padded rank files", name)
	}
	if man.Parity == nil || man.Parity.Size != int64(len(parity)) || man.Parity.CRC != crc32.ChecksumIEEE(parity) {
		t.Errorf("%s: manifest parity entry %+v does not describe the parity image", name, man.Parity)
	}
}

// TestSaveCounts: one SaveOpts, on chan and on TCP, writes rank and parity
// files byte-identical to images assembled here point by point, records
// their sizes and checksums in the manifest, and moves exactly the
// messages and bytes counted below.
func TestSaveCounts(t *testing.T) {
	const np = 4
	// The save through the stripe exchange moved 27 data messages and 2652
	// bytes.  The exchange was 12 of those messages, every rank to each of
	// the three other stripe servers, and 864 bytes: the arrays' 1168 less
	// the 304 each server held of its own stripe.  The parity fold keeps
	// its 3 messages (P − 1), but they no longer carry three 404-byte
	// stripe partials: the leaves send their rank files (rank 0's 388 and
	// rank 2's 364 bytes) and rank 1 its sum padded to the largest (388).
	// Epoch broadcast, checksum gather and verdict are unchanged.
	const wantMsgs, wantBytes = 27 - 12, 2652 - 864 - 3*404 + 388 + 364 + 388
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
		want := make([][]byte, np)
		for r := range want {
			want[r] = referenceRankFile(exchangeDists(t, np), 0, r)
		}
		checkEpochFiles(t, transport, filepath.Join(dir, epochDirName(0)), want)
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

// TestSaveShortPartialFailsEpoch: rank 2's parity partial (its rank file;
// rank 2 is a leaf of the fold tree rooted at rank 3) arrives halved at
// rank 1, its parent.  The save fails on every rank — rank 1 with an
// error naming the sizes, the others by agreement — without a panic,
// without a hang (rank 1 still merges and forwards, so the root is not
// left waiting), and without committing an epoch.
func TestSaveShortPartialFailsEpoch(t *testing.T) {
	const np = 4
	want := regexp.MustCompile(`ckpt: parity fold: \d+ bytes from rank 2, want \d+`)
	dir := t.TempDir()
	tt := &truncTransport{Transport: msg.NewChanTransport(np), from: 2, to: 1, match: func(tag int) bool { return tag == parityTag }}
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

// TestSaveRejectsNonStandard: a distribution whose replay over a virtual
// target would own other grids — a transposed binding, a pinned
// coordinate, a proper section of the machine — fails the save on every
// rank with one and the same error, before anything is written.  A
// standard mapping onto a smaller processor array than the machine
// saves.
func TestSaveRejectsNonStandard(t *testing.T) {
	const np = 4
	dom := index.Dim(8, 6)
	blocks := func(m *machine.Machine, d index.Domain, specs ...dist.DimSpec) *dist.Distribution {
		return dist.MustNew(dist.NewType(specs...), d, m.ProcsDim("G", 2, 2).Whole())
	}
	cases := []struct {
		name string
		d    func(m *machine.Machine) (*dist.Distribution, error)
		ok   bool
	}{
		{"transposed", func(m *machine.Machine) (*dist.Distribution, error) {
			b := blocks(m, index.Dim(6, 8), dist.BlockDim(), dist.BlockDim())
			return dist.Construct(dist.Transpose2D(), b, dom)
		}, false},
		{"pinned", func(m *machine.Machine) (*dist.Distribution, error) {
			b := blocks(m, index.Dim(8, 6, 6), dist.BlockDim(), dist.BlockDim(), dist.ElidedDim())
			return dist.Construct(dist.NewAlignment(dist.Axis(0), dist.AxisMap{Const: true, ConstVal: 5}, dist.Axis(1)), b, dom)
		}, false},
		{"section", func(m *machine.Machine) (*dist.Distribution, error) {
			return dist.New(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, m.ProcsDim("P", np).Section([3]int{2, 3, 1}))
		}, false},
		{"smaller", func(m *machine.Machine) (*dist.Distribution, error) {
			return dist.New(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, m.ProcsDim("P", 2).Whole())
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m := machine.New(np)
			defer m.Close()
			d, err := c.d(m)
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]string, np)
			m.Run(func(ctx *machine.Ctx) error {
				a := darray.New(ctx, "A", dom, d)
				if _, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, Options{}); err != nil {
					errs[ctx.Rank()] = err.Error()
				}
				return nil
			})
			ents, _ := os.ReadDir(dir)
			if c.ok {
				if errs[0] != "" || len(ents) != 1 {
					t.Fatalf("%v: errors %q, %d entries written", d, errs, len(ents))
				}
				return
			}
			for r, e := range errs {
				if !strings.Contains(e, "is not checkpointable") || e != errs[0] {
					t.Errorf("%v: rank %d: error %q, rank 0 %q", d, r, e, errs[0])
				}
			}
			if len(ents) != 0 {
				t.Errorf("%v: %d entries written", d, len(ents))
			}
		})
	}
}
