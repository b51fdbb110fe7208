package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
)

// fillA/fillB give full-width float64 mantissas so bit-identity failures
// cannot hide behind round numbers.
func fillA(p index.Point) float64 { return 1 + math.Sin(float64(p[0]*3))*math.E }
func fillB(p index.Point) float64 { return 2 + math.Cos(float64(p[0]*7))*math.Pi }

// unevenBounds builds deliberately lopsided B_BLOCK segment upper bounds
// for np processors over dom: tiny head segments and one huge one, the
// shape a load balancer produces under a skewed particle distribution.
func unevenBounds(dom index.Domain, np int) []int {
	n := dom.Extent(0)
	if np == 1 {
		return []int{dom.Hi[0]}
	}
	segs := make([]int, np)
	for i := range segs {
		segs[i] = 1 // minimal head segments
	}
	segs[np-1] = 2
	rest := n
	for _, s := range segs {
		rest -= s
	}
	segs[np-2] += rest // the bulk lands on one processor
	bounds := make([]int, np)
	used := 0
	for i, s := range segs {
		used += s
		bounds[i] = dom.Lo[0] + used - 1
	}
	return bounds
}

// checkpointUnevenConnected runs np ranks declaring a B_BLOCK primary
// with uneven bounds plus a CONNECTed secondary, fills both, and
// checkpoints them into dir.
func checkpointUnevenConnected(t *testing.T, np int, dir string) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	eng := core.NewEngine(m)
	dom := index.Dim(29)
	err := m.Run(func(ctx *machine.Ctx) error {
		bspec := core.DistSpec{Type: dist.NewType(dist.BBlockDim(unevenBounds(dom, np)...))}
		u := eng.MustDeclare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &bspec})
		w := eng.MustDeclare(ctx, core.Decl{Name: "W", Domain: dom, Dynamic: true, ConnectTo: "U"})
		u.FillFunc(ctx, fillA)
		w.FillFunc(ctx, fillB)
		if err := ctx.Barrier(); err != nil {
			return err
		}
		_, err := eng.CheckpointIter(ctx, dir, 3)
		return err
	})
	if err != nil {
		t.Fatalf("checkpoint on %d ranks: %v", np, err)
	}
}

// restoreUnevenConnected restores the checkpoint onto np ranks and
// verifies both arrays bit-exactly, plus the CONNECT invariant (the
// secondary still shares the primary's distribution).
func restoreUnevenConnected(t *testing.T, np int, dir string, wantIter int) {
	t.Helper()
	m := machine.New(np)
	defer m.Close()
	eng := core.NewEngine(m)
	dom := index.Dim(29)
	err := m.Run(func(ctx *machine.Ctx) error {
		// The declared initial distribution must fit *this* machine (np
		// may be smaller than the writer's); Restore replays the
		// recorded descriptor over it.
		bspec := core.DistSpec{Type: dist.NewType(dist.BBlockDim(unevenBounds(dom, np)...))}
		u := eng.MustDeclare(ctx, core.Decl{Name: "U", Domain: dom, Dynamic: true, Init: &bspec})
		w := eng.MustDeclare(ctx, core.Decl{Name: "W", Domain: dom, Dynamic: true, ConnectTo: "U"})
		man, err := eng.Restore(ctx, dir)
		if err != nil {
			return err
		}
		if iter, ok := man.MetaInt("iter"); !ok || iter != wantIter {
			t.Errorf("np %d: restored iter = %d, %v; want %d", np, iter, ok, wantIter)
		}
		for _, tc := range []struct {
			a    *core.Array
			want func(index.Point) float64
		}{{u, fillA}, {w, fillB}} {
			got, err := tc.a.GatherTo(ctx, 0)
			if err != nil {
				return err
			}
			if ctx.Rank() == 0 {
				dom.WholeSection().ForEach(func(p index.Point) bool {
					if g, want := got[dom.Offset(p)], tc.want(p); g != want {
						t.Errorf("np %d: %s[%v] = %v, want %v (bit-exact)", np, tc.a.Name(), p, g, want)
						return false
					}
					return true
				})
			}
		}
		if ctx.Rank() == 0 {
			if ud, wd := u.DistType(ctx.Rank()).String(), w.DistType(ctx.Rank()).String(); ud != wd {
				t.Errorf("np %d: CONNECT broken after restore: U dist %s, W dist %s", np, ud, wd)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("restore on %d ranks: %v", np, err)
	}
}

// TestRestoreOntoFewerRanksUnevenBBlock checkpoints a primary B_BLOCK
// array with lopsided segment bounds plus a CONNECTed secondary on 4
// ranks and restores onto 3, 2, and 1 — the shrink path must replay the
// pair onto the smaller grid with bit-exact values and an intact
// connect class.
func TestRestoreOntoFewerRanksUnevenBBlock(t *testing.T) {
	dir := t.TempDir()
	checkpointUnevenConnected(t, 4, dir)
	for _, np := range []int{3, 2, 1} {
		restoreUnevenConnected(t, np, dir, 3)
	}
}

// TestRestoreOntoSameRanksUnevenBBlock: same-size restore must take the
// bit-identical fast path even for uneven B_BLOCK bounds and keep the
// CONNECTed secondary aligned.
func TestRestoreOntoSameRanksUnevenBBlock(t *testing.T) {
	dir := t.TempDir()
	checkpointUnevenConnected(t, 4, dir)
	restoreUnevenConnected(t, 4, dir, 3)
}
