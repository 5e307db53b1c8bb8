package roofline

import (
	"repro/internal/arch"
	"repro/internal/sparse"
)

// Achieved places one kernel class of a *finished* solve on the machine's
// roofline: nominal work (the same accounting as the sparse op counters)
// divided by the measured wall time of that kernel class from
// krylov.Timing. This is the live counterpart of the offline Fig.-4 model —
// it shows per production solve how far each kernel sits from the
// bandwidth roof, and whether cache-aware fill-in is moving it.
type Achieved struct {
	// Kernel is "spmv" (y = Ap products), "apply_g" (z = GᵀGr, two sweeps
	// of the factor per application) or "blas1" (the fused vector kernels).
	Kernel string `json:"kernel"`
	// Calls is the number of kernel executions attributed (SpMV sweeps,
	// preconditioner applications, or CG iterations for blas1).
	Calls int64 `json:"calls"`
	// Flops and Bytes are the nominal totals over the solve.
	Flops float64 `json:"flops"`
	Bytes float64 `json:"bytes"`
	// Seconds is the measured wall time of the kernel class.
	Seconds float64 `json:"seconds"`
	// AchievedFlops is flops/Seconds — the value exported as the
	// roofline_achieved_flops gauge (flop/s).
	AchievedFlops float64 `json:"achieved_flops"`
	// AchievedBandwidthBytes is Bytes/Seconds — the value exported as the
	// roofline_achieved_bandwidth_bytes gauge (B/s).
	AchievedBandwidthBytes float64 `json:"achieved_bandwidth_bytes"`
	// AI is the nominal arithmetic intensity (flop/byte).
	AI float64 `json:"ai"`
	// AttainableFlops is the roofline bound min(peak, AI×bandwidth) on the
	// machine, in flop/s.
	AttainableFlops float64 `json:"attainable_flops"`
	// PctOfAttainable is 100×AchievedFlops/AttainableFlops.
	PctOfAttainable float64 `json:"pct_of_attainable"`
	// Bound is "bandwidth" or "compute" — which roof limits the kernel.
	Bound string `json:"bound"`
}

// kernel names used across gauges, run reports and /roofline.
const (
	KernelSpMV   = "spmv"
	KernelApplyG = "apply_g"
	KernelBLAS1  = "blas1"
)

// spmvSweep returns nominal flops and bytes of one sweep of m, matching
// sparse.countSpMV: 2 flops per stored entry; 12 B per entry + 4 B per row
// pointer of matrix traffic; nominal vector traffic (input read once,
// output written once).
func spmvSweep(m *sparse.CSR) (flops, bytes float64) {
	nnz := float64(m.NNZ())
	return 2 * nnz, 12*nnz + 4*float64(m.Rows) + 8*float64(m.Cols+m.Rows)
}

// SolveEstimate computes the achieved roofline placement of a finished PCG
// solve from its kernel-class wall times (krylov.Timing, in nanoseconds —
// plain int64s so this package needs no krylov import).
//
//   - spmv: iters sweeps of A
//   - apply_g: iters applications of M = GᵀG, two sweeps of the factor each
//     (g nil — e.g. Jacobi or identity preconditioning — omits the entry)
//   - blas1: per iteration the fused engine does 12n flops over 104n bytes
//     (dot 2n/16n, fused x/r update 6n/48n, dot 2n/16n, xpay 2n/24n)
//
// Kernel classes with zero measured time (timing not collected) are
// omitted, so an empty slice means "no attribution possible".
func SolveEstimate(a, g *sparse.CSR, iters int, spmvNS, precondNS, blas1NS int64, machine arch.Arch) []Achieved {
	if a == nil || iters <= 0 {
		return nil
	}
	out := make([]Achieved, 0, 3)
	add := func(name string, calls int64, flops, bytes float64, ns int64) {
		out = appendAchieved(out, name, calls, flops, bytes, ns, machine)
	}

	it := float64(iters)
	af, ab := spmvSweep(a)
	add(KernelSpMV, int64(iters), it*af, it*ab, spmvNS)
	if g != nil {
		gf, gb := spmvSweep(g)
		add(KernelApplyG, int64(iters), it*2*gf, it*2*gb, precondNS)
	}
	n := float64(a.Rows)
	add(KernelBLAS1, int64(iters), it*12*n, it*104*n, blas1NS)
	return out
}

// KernelSpMM is the kernel-class name of the batched multi-vector product
// (one matrix stream serving k right-hand-side columns).
const KernelSpMM = "spmm"

// BlockSolveEstimate is the batched counterpart of SolveEstimate for a
// finished block-PCG solve: sweeps is the number of block iterations (matrix
// passes), colIters the sum of per-column iteration counts (≤ sweeps×k when
// columns deflate early). The matrix stream is charged once per sweep — the
// whole point of batching — while vector traffic and BLAS-1 work scale with
// colIters, so the spmm entry's AI reports the batch's achieved arithmetic
// intensity: it rises with the effective block width colIters/sweeps.
func BlockSolveEstimate(a, g *sparse.CSR, sweeps int, colIters int64, spmvNS, precondNS, blas1NS int64, machine arch.Arch) []Achieved {
	if a == nil || sweeps <= 0 || colIters <= 0 {
		return nil
	}
	out := make([]Achieved, 0, 3)
	add := func(name string, calls int64, flops, bytes float64, ns int64) {
		out = appendAchieved(out, name, calls, flops, bytes, ns, machine)
	}

	sw := float64(sweeps)
	ci := float64(colIters)
	nnz := float64(a.NNZ())
	// Matrix stream once per sweep; per-column vector gathers per column-iter.
	matBytes := (12*nnz + 4*float64(a.Rows)) * sw
	vecBytes := 8 * float64(a.Cols+a.Rows) * ci
	add(KernelSpMM, int64(sweeps), 2*nnz*ci, matBytes+vecBytes, spmvNS)
	if g != nil {
		gnnz := float64(g.NNZ())
		gm := 2 * (12*gnnz + 4*float64(g.Rows)) * sw
		gv := 2 * 8 * float64(g.Cols+g.Rows) * ci
		add(KernelApplyG, int64(sweeps), 2*2*gnnz*ci, gm+gv, precondNS)
	}
	n := float64(a.Rows)
	add(KernelBLAS1, int64(sweeps), 12*n*ci, 104*n*ci, blas1NS)
	return out
}

// appendAchieved places one kernel class of a finished solve — calls
// invocations moving bytes and doing flops in ns — against the machine's
// roofs and appends it to out. Classes that took no time or did no work
// are skipped.
func appendAchieved(out []Achieved, name string, calls int64, flops, bytes float64, ns int64, machine arch.Arch) []Achieved {
	if ns <= 0 || flops <= 0 {
		return out
	}
	sec := float64(ns) / 1e9
	k := Kernel{Name: name, Flops: flops, Bytes: bytes}
	att := Attainable(k, machine)
	e := Achieved{
		Kernel:                 name,
		Calls:                  calls,
		Flops:                  flops,
		Bytes:                  bytes,
		Seconds:                sec,
		AchievedFlops:          flops / sec,
		AchievedBandwidthBytes: bytes / sec,
		AI:                     k.AI(),
		AttainableFlops:        att,
		Bound:                  "compute",
	}
	if BandwidthBound(k, machine) {
		e.Bound = "bandwidth"
	}
	if att > 0 {
		e.PctOfAttainable = 100 * e.AchievedFlops / att
	}
	return append(out, e)
}
