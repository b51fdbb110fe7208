package ckpt

import (
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/index"
	"repro/internal/machine"
	"repro/internal/msg"
)

// BenchmarkCkptSave768 is the save layer of adi_ckpt_tcp (make bench-wire):
// the 768² grid, rows blocked over 4 ranks as ADI leaves it at a
// checkpoint — so every rank ships three quarters of its part to other
// stripe servers — over TCP loopback with CRC32C, parity stripes on the
// default servers, two epochs retained.  MB/s is grid bytes per save.
func BenchmarkCkptSave768(b *testing.B) {
	const edge, np = 768, 4
	tcp, err := msg.NewTCPTransport(np)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(np, machine.WithTransport(msg.NewIntegrityTransport(tcp)))
	defer m.Close()
	dir := b.TempDir()
	dom := index.Dim(edge, edge)
	b.SetBytes(edge * edge * 8)
	err = m.Run(func(ctx *machine.Ctx) error {
		tg := ctx.Machine().ProcsDim("$B", np).Whole()
		a := darray.New(ctx, "V", dom, dist.MustNew(dist.NewType(dist.BlockDim(), dist.ElidedDim()), dom, tg))
		a.FillFunc(ctx, fill)
		save := func() error {
			_, err := SaveOpts(ctx, dir, []*darray.Array{a}, nil, Options{Keep: 2})
			return err
		}
		if err := save(); err != nil { // warm: directories, free lists
			return err
		}
		if ctx.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := save(); err != nil {
				return err
			}
		}
		return ctx.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}
