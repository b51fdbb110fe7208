package ckpt

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// goldenRankFiles are the SHA-256 sums of the four rank files one save of
// goldenArrays writes at P = 4.  A rank file holds each array's primary
// segment in local canonical order, so these pin the format: a change
// that moves a byte of any rank file must bump Version and these sums
// together.
var goldenRankFiles = [4]string{
	"dd076d9938bd61d82c971b2ed3fa45b0f2f99a8ca9f517d956bf947f2ccdf764",
	"9d091a831643e9b914f9541eeee8824a6be2f70ad96f2f2821d03ffa7f3b8b07",
	"deb72a8df1f60f0b550bb7bd3a397e100cf8f2cc13dae1026ed6eb5406a110f2",
	"9fbb643894e65e5588fe3f7adc616285115252e216e04eac2de3fc0242b60fb3",
}

// goldenArrays declares the three arrays of the golden save on a 2×2 grid:
// C is (CYCLIC(2), BLOCK), several owned runs in its first dimension; G is
// (BLOCK, BLOCK) with ghost areas of width 1, its owned set inside a
// margin; R is (BLOCK, :) on the grid's first dimension, replicated over
// its second.  A nil-distributed array (restore) is DYNAMIC.
func goldenArrays(ctx *machine.Ctx, withDist bool) []*darray.Array {
	dom := index.Dim(13, 9)
	mk := func(name string, specs []dist.DimSpec, opts ...darray.Option) *darray.Array {
		var d *dist.Distribution
		if withDist {
			d = dist.MustNew(dist.NewType(specs...), dom, ctx.Machine().ProcsDim("$G", 2, 2).Whole())
		}
		return darray.New(ctx, name, dom, d, opts...)
	}
	return []*darray.Array{
		mk("C", []dist.DimSpec{dist.CyclicDim(2), dist.BlockDim()}),
		mk("G", []dist.DimSpec{dist.BlockDim(), dist.BlockDim()}, darray.WithGhost(1, 1)),
		mk("R", []dist.DimSpec{dist.BlockDim(), dist.ElidedDim()}),
	}
}

// TestSaveRankFilesGolden saves goldenArrays at P = 4 and holds each rank
// file to its pinned SHA-256, then restores the save on 4 ranks (every
// file whole) and on 3 (pieces of files) and checks every element.
func TestSaveRankFilesGolden(t *testing.T) {
	dir := t.TempDir()
	epoch := -1
	m := machine.New(4)
	err := m.Run(func(ctx *machine.Ctx) error {
		arrays := goldenArrays(ctx, true)
		for _, a := range arrays {
			a.FillFunc(ctx, fill)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		ep, err := SaveOpts(ctx, dir, arrays, nil, Options{})
		if ctx.Rank() == 0 {
			epoch = ep
		}
		return err
	})
	m.Close()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	for r, want := range goldenRankFiles {
		data, err := os.ReadFile(filepath.Join(dir, epochDirName(epoch), fmt.Sprintf("rank-%04d.bin", r)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("rank file %d: sha256 %s, want %s", r, got, want)
		}
	}
	for _, np := range []int{4, 3} {
		m := machine.New(np)
		err := m.Run(func(ctx *machine.Ctx) error {
			arrays := goldenArrays(ctx, false)
			if _, err := RestoreOpts(ctx, dir, arrays, Options{}); err != nil {
				return err
			}
			for _, a := range arrays {
				got, err := a.GatherTo(ctx, 0)
				if err != nil {
					return err
				}
				if ctx.Rank() != 0 {
					continue
				}
				a.Domain().WholeSection().ForEach(func(p index.Point) bool {
					if g := got[a.Domain().Offset(p)]; g != fill(p) {
						t.Errorf("restore on %d ranks: %s%v = %v, want %v", np, a.Name(), p, g, fill(p))
						return false
					}
					return true
				})
			}
			return nil
		})
		m.Close()
		if err != nil {
			t.Fatalf("restore on %d ranks: %v", np, err)
		}
	}
}
