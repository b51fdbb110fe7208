package ckpt

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestParityFoldMatrix: every rank file is the point-by-point image of
// the rank's primary segments, and the parity file the fold tree builds
// is the XOR of the rank files zero-padded to the largest, on machines of
// 1 to 8 ranks — trees of every shape, non-powers of two included — over
// chan and TCP, for one save of four arrays at once: BLOCK, CYCLIC(3),
// uneven B_BLOCK and a block replicated across a second processor
// dimension (whose replicas write nothing).
func TestParityFoldMatrix(t *testing.T) {
	kinds := []string{"block", "cyclic", "bblock", "replicated"}
	var doms []index.Domain
	for _, kind := range kinds {
		doms = append(doms, domFor(kind))
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, np := range []int{1, 2, 3, 4, 5, 8} {
			name := fmt.Sprintf("%s/P=%d", transport, np)
			dir := t.TempDir()
			m := newMachine(t, np, transport)
			dists := make([]*dist.Distribution, len(kinds))
			err := m.Run(func(ctx *machine.Ctx) error {
				arrays := make([]*darray.Array, len(kinds))
				for i, kind := range kinds {
					arrays[i] = darray.New(ctx, string(rune('A'+i)), doms[i], distFor(ctx, kind, doms[i], np))
					arrays[i].FillFunc(ctx, fill)
					if ctx.Rank() == 0 {
						dists[i] = arrays[i].Dist(0)
					}
				}
				_, err := SaveOpts(ctx, dir, arrays, nil, Options{})
				return err
			})
			m.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := make([][]byte, np)
			for r := range want {
				want[r] = referenceRankFile(dists, 0, r)
			}
			checkEpochFiles(t, name, filepath.Join(dir, epochDirName(0)), want)
		}
	}
}

// TestSaveCriticalPath: under α = 1e-4 s and β = 1e-8 s/B, a 4-rank save
// of the 768² grid with its rows blocked (adi_ckpt_tcp at a checkpoint)
// spends at most two hops of a full rank file more modelled time than the
// same save without redundancy: the fold's depth.  Data messages per save
// are exact: the epoch broadcast 3, the fold 3, the checksum gather 6 and
// the verdict broadcast 3 (the stripe exchange added 12 more).
func TestSaveCriticalPath(t *testing.T) {
	const edge, np = 768, 4
	const alpha, beta = 1e-4, 1e-8
	dom := index.Dim(edge, edge)
	save := func(redundancy string) (span float64, msgs int64) {
		cm := msg.NewCostModel(np, alpha, beta)
		m := machine.New(np, machine.WithCostModel(cm))
		defer m.Close()
		dir := t.TempDir()
		err := m.Run(func(ctx *machine.Ctx) error {
			tg := ctx.Machine().ProcsDim("$R", np).Whole()
			a := darray.New(ctx, "V", dom, dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg))
			a.FillFunc(ctx, fill)
			_, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, Options{Redundancy: redundancy})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", redundancy, err)
		}
		return cm.Makespan(), m.Transport().Stats().Snapshot().TotalDataMsgs()
	}
	parity, parityMsgs := save("parity")
	none, noneMsgs := save("none")
	hop := alpha + beta*float64(20+4+8*edge*edge/np)
	t.Logf("modelled save: %.2f ms with parity, %.2f ms without, hop %.2f ms", parity*1e3, none*1e3, hop*1e3)
	if parity > none+2*hop {
		t.Errorf("parity save spans %.2f ms, more than the save without redundancy (%.2f ms) plus two hops (%.2f ms)",
			parity*1e3, none*1e3, 2*hop*1e3)
	}
	if parityMsgs != 15 || noneMsgs != 12 {
		t.Errorf("data messages per save: %d with parity, %d without; want 15 and 12", parityMsgs, noneMsgs)
	}
}

// FuzzStripePayloads: the rank-file header and payload-table parser
// (filePayloads; a rank file is a stripe of its epoch's pario.StripeSet)
// never panics, and whatever it accepts is a table that fits the file:
// one payload per manifest array, each exactly the count its word
// announces, back to back after the header.
func FuzzStripePayloads(f *testing.F) {
	img := referenceRankFile(exchangeDists(f, 3), 7, 1)
	f.Add(img, uint8(2))
	f.Add(img, uint8(3))
	f.Add(img[:20], uint8(2))
	f.Add(img[:len(img)-1], uint8(2))
	f.Add(img[:20], uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, narr uint8) {
		man := &Manifest{Epoch: 7, Arrays: make([]ArrayMeta, narr%8)}
		payloads, err := filePayloads(data, man, "epoch", 1)
		if err != nil {
			return
		}
		if len(payloads) != len(man.Arrays) {
			t.Fatalf("%d payloads for %d arrays", len(payloads), len(man.Arrays))
		}
		off := 20
		for i, p := range payloads {
			n := 8 * int(getU32(data, off))
			if !bytes.Equal(p, data[off+4:off+4+n]) {
				t.Fatalf("payload %d is not the %d bytes after its count word at %d", i, n, off)
			}
			off += 4 + n
		}
	})
}
