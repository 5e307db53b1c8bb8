package krylov

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// BenchmarkPCGIteration times the exact kernel sequence of one PCG
// iteration on the engine — SpMV with A, dot for the step length, the fused
// iterate/residual update, the two-SpMV FSAI-style preconditioner
// application, dot and search-direction update — and proves it performs
// zero heap allocations per iteration in steady state. It runs on the
// BenchmarkBlockPCGIteration fixture, so its time compares directly with
// that benchmark's k=1 case.
func BenchmarkPCGIteration(b *testing.B) {
	n := 250000
	a := benchBand(n, 5, false)
	g := benchBand(n, 5, true) // stand-in lower-triangular factor
	gt := g.Transpose()
	w := parallel.MaxWorkers()
	a.PartitionPlan(w)
	g.PartitionPlan(w)
	gt.PartitionPlan(w)
	eng := kernels.New(n, w)

	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	tmp := make([]float64, n)
	for i := range r {
		r[i] = float64(i%13) - 6
		p[i] = r[i]
	}

	b.ReportAllocs()
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SpMV(a, ap, p)        // q = A p
		pap := eng.Dot(p, ap)     // pᵀq
		alpha := 1e-7 / (pap + 1) // bounded step keeps vectors finite
		_ = eng.XRUpdate(alpha, p, ap, x, r)
		eng.SpMV(g, tmp, r) // z = Gᵀ(G r)
		eng.SpMV(gt, z, tmp)
		rz := eng.Dot(r, z)
		beta := rz / (rz + 1)
		eng.Xpay(z, beta, p) // p = z + beta p
	}
}

// benchBand builds a diagonally dominant banded matrix with bw off-diagonals
// on each side (~2·bw+1 entries per row) — the same density class as the
// sparse-package benchmark fixture, representative of FSAI pattern work.
func benchBand(n, bw int, lowerOnly bool) *sparse.CSR {
	c := sparse.NewCOO(n, n, n*(2*bw+1))
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(2*bw)+1.5)
		for d := 1; d <= bw; d++ {
			if i-d >= 0 {
				c.Add(i, i-d, -0.5/float64(d))
			}
			if !lowerOnly && i+d < n {
				c.Add(i, i+d, -0.5/float64(d))
			}
		}
	}
	return c.ToCSR()
}

// BenchmarkBlockPCGIteration times the decoupled block-PCG iteration body —
// the exact kernel sequence SolveBlock runs per iteration — across block
// widths. The figure of merit is ns/rhs: at k=8 the three matrix streams
// (A, G, Gᵀ) are each read once for eight columns, so per-RHS time should
// drop well past the ≥1.5× acceptance gate versus k=1.
func BenchmarkBlockPCGIteration(b *testing.B) {
	n := 250000
	a := benchBand(n, 5, false)
	g := benchBand(n, 5, true) // stand-in lower-triangular factor
	gt := g.Transpose()
	w := parallel.MaxWorkers()
	a.PartitionPlan(w)
	g.PartitionPlan(w)
	gt.PartitionPlan(w)
	eng := kernels.New(n, w)

	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			x := make([]float64, n*k)
			r := make([]float64, n*k)
			z := make([]float64, n*k)
			p := make([]float64, n*k)
			q := make([]float64, n*k)
			tmp := make([]float64, n*k)
			for i := range r {
				r[i] = float64(i%13) - 6
				p[i] = r[i]
			}
			b.ReportAllocs()
			b.SetBytes(int64(n * k * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.SpMM(a, q, p, k) // Q = A P, one matrix pass for k columns
				for j := 0; j < k; j++ {
					pj, qj := p[j*n:(j+1)*n], q[j*n:(j+1)*n]
					pap := eng.Dot(pj, qj)
					alpha := 1e-7 / (pap + 1)
					_ = eng.XRUpdate(alpha, pj, qj, x[j*n:(j+1)*n], r[j*n:(j+1)*n])
				}
				eng.SpMM(g, tmp, r, k) // Z = Gᵀ(G R)
				eng.SpMM(gt, z, tmp, k)
				for j := 0; j < k; j++ {
					rj, zj := r[j*n:(j+1)*n], z[j*n:(j+1)*n]
					rz := eng.Dot(rj, zj)
					beta := rz / (rz + 1)
					eng.Xpay(zj, beta, p[j*n:(j+1)*n])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/rhs")
		})
	}
}
