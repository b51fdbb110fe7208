package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// TestParityFoldMatrix: the parity stripe the fold tree builds is the XOR
// of the stripe files zero-padded to the longest, and every stripe file is
// the point-by-point image, on machines of 1 to 8 ranks — trees of every
// shape, non-powers of two included, and more ranks than servers — under
// the default, 2 and 3 servers, over chan and TCP, for one save of four
// arrays at once: BLOCK, CYCLIC(3), uneven B_BLOCK and a block replicated
// across a second processor dimension.
func TestParityFoldMatrix(t *testing.T) {
	kinds := []string{"block", "cyclic", "bblock", "replicated"}
	var doms []index.Domain
	for _, kind := range kinds {
		doms = append(doms, domFor(kind))
	}
	for _, transport := range []string{"chan", "tcp"} {
		for _, np := range []int{1, 2, 3, 4, 5, 8} {
			for _, servers := range []int{0, 2, 3} {
				name := fmt.Sprintf("%s/P=%d/servers=%d", transport, np, servers)
				dir := t.TempDir()
				m := newMachine(t, np, transport)
				err := m.Run(func(ctx *machine.Ctx) error {
					arrays := make([]*darray.Array, len(kinds))
					for i, kind := range kinds {
						arrays[i] = darray.New(ctx, string(rune('A'+i)), doms[i], distFor(ctx, kind, doms[i], np))
						arrays[i].FillFunc(ctx, fill)
					}
					_, err := SaveOpts(ctx, dir, arrays, nil, Options{Servers: servers})
					return err
				})
				m.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ns := Options{Servers: servers}.withDefaults(np).Servers
				epochDir := EpochDir(dir, 0)
				var parity []byte
				for s := 0; s < ns; s++ {
					got, err := os.ReadFile(filepath.Join(epochDir, stripeFileName(s)))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(got, referenceStripe(doms, ns, 0, s)) {
						t.Errorf("%s: stripe %d differs from the point-by-point image", name, s)
					}
					if len(got) > len(parity) {
						parity = append(parity, make([]byte, len(got)-len(parity))...)
					}
					xorRef(parity, got)
				}
				got, err := os.ReadFile(filepath.Join(epochDir, parityFileName()))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, parity) {
					t.Errorf("%s: parity.bin is not the XOR of the zero-padded stripe files", name)
				}
			}
		}
	}
}

func xorRef(dst, src []byte) {
	for i, b := range src {
		dst[i] ^= b
	}
}

// TestSaveCriticalPath: under α = 1e-4 s and β = 1e-8 s/B, a 4-rank save
// of the 768² grid with its rows blocked (adi_ckpt_tcp at a checkpoint)
// spends at most two hops of a full stripe more modelled time than the
// same save without redundancy.  The chain the fold replaced started
// after the exchange and added three.  Data messages per save are exact:
// the epoch broadcast 3, the exchange 12, the fold 3 partials, the
// checksum gather 6 and the verdict broadcast 3.
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
	if parityMsgs != 27 || noneMsgs != 24 {
		t.Errorf("data messages per save: %d with parity, %d without; want 27 and 24", parityMsgs, noneMsgs)
	}
}

// FuzzStripePayloads: the stripe header and payload-table parser never
// panics, and whatever it accepts is a table that fits the file: one
// payload per manifest array, each exactly the count its word announces,
// back to back after the header.
func FuzzStripePayloads(f *testing.F) {
	img := referenceStripe([]index.Domain{index.Dim(13, 9), index.Dim(29)}, 3, 7, 1)
	f.Add(img, uint8(2))
	f.Add(img, uint8(3))
	f.Add(img[:20], uint8(2))
	f.Add(img[:len(img)-1], uint8(2))
	f.Add(img[:20], uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, narr uint8) {
		man := &Manifest{Epoch: 7, Arrays: make([]ArrayMeta, narr%8)}
		payloads, err := stripePayloads(data, man, "epoch", 1)
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
