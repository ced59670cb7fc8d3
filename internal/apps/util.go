package apps

import (
	"fliptracker/internal/ir"
	"fliptracker/internal/mpi"
)

// idx2 computes i*stride + j for two-dimensional array addressing.
func idx2(b *ir.FuncBuilder, i, j ir.Reg, stride int64) ir.Reg {
	return b.Add(b.MulI(i, stride), j)
}

// load2 reads g[i][j] from a row-major 2-D global with the given stride.
func load2(b *ir.FuncBuilder, g ir.Global, i, j ir.Reg, stride int64) ir.Reg {
	return b.LoadG(g, idx2(b, i, j, stride))
}

// store2 writes g[i][j] = v.
func store2(b *ir.FuncBuilder, g ir.Global, i, j ir.Reg, stride int64, v ir.Reg) {
	b.StoreG(g, idx2(b, i, j, stride), v)
}

// fillConstF fills g[0..n) with the float constant v.
func fillConstF(b *ir.FuncBuilder, g ir.Global, n int64, v float64) {
	val := b.ConstF(v)
	b.ForI(0, n, func(i ir.Reg) {
		b.StoreG(g, i, val)
	})
}

// fillRand fills g[0..n) with deterministic uniform [lo,hi) doubles from the
// rand01 host.
func fillRand(b *ir.FuncBuilder, g ir.Global, n int64, lo, hi float64) {
	span := b.ConstF(hi - lo)
	base := b.ConstF(lo)
	b.ForI(0, n, func(i ir.Reg) {
		r := b.Host("rand01", 0, true)
		b.StoreG(g, i, b.FAdd(base, b.FMul(r, span)))
	})
}

// mpiSetup declares the MPI hosts and a one-word checksum buffer when mpi is
// requested; it returns a function that, called inside the main loop, folds
// the value register into a world-wide allreduce so the SPMD variant really
// communicates every iteration (the Figure 4 workloads).
func mpiSetup(p *ir.Program, mpiMode bool) func(b *ir.FuncBuilder, val ir.Reg) {
	if !mpiMode {
		return func(*ir.FuncBuilder, ir.Reg) {}
	}
	mpi.DeclareHosts(p)
	ckbuf := p.AllocGlobal("mpi_ck", 1, ir.F64)
	return func(b *ir.FuncBuilder, val ir.Reg) {
		b.StoreGI(ckbuf, 0, val)
		b.Host(mpi.HostAllreduceSum, 2, false, b.ConstI(ckbuf.Addr), b.ConstI(1))
	}
}
