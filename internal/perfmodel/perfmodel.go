// Package perfmodel prices solver and setup work on an arch.Arch machine
// model, turning (entry counts, line visits, cache misses, row counts) into
// simulated seconds and Gflop/s figures.
//
// The model encodes the first-order performance physics the paper's
// optimization exploits. An SpMV sweep y = Mx pays
//
//   - a small per-entry streaming cost (matrix values/indices arrive at
//     stride 1 and are fully prefetched — "there is some flexibility for
//     extending A without suffering a prohibitive performance penalty",
//     Section 4);
//   - a per-line-visit cost: every *distinct* cache line of x touched by a
//     row costs one gather/address-generation round. Entries that land in
//     an already-visited line of the same row ride along nearly free —
//     this is precisely the spatial locality the cache-friendly fill-in
//     engineers, and what makes extended patterns reach far higher Gflop/s
//     (Figure 4) at near-constant sweep time;
//   - a per-miss penalty for x accesses that leave the L1 (measured by the
//     cache simulator), the term random extensions blow up (Figure 3);
//   - a per-row loop overhead.
//
// The constants per machine are calibration constants of the reproduction:
// absolute times are indicative, relative comparisons are the deliverable.
package perfmodel

import "repro/internal/arch"

// CSR entry footprint: 8-byte value + 4-byte column index.
const entryBytes = 12

// Constants returns the pricing constants for machine a, derived from its
// headline parameters: per-entry streaming time from peak bandwidth,
// per-line-visit gather cost and per-miss stall from the line size and
// latency character of the machine.
type Constants struct {
	EntrySec     float64 // per stored entry (streaming, prefetched)
	LineVisitSec float64 // per distinct x-line touched within a row
	MissSec      float64 // per L1 x-miss
	RowSec       float64 // per row of the sweep
	VecByteSec   float64 // per byte of dense vector traffic
}

// ConstantsFor derives pricing constants from the machine model.
func ConstantsFor(a arch.Arch) Constants {
	return Constants{
		EntrySec:     entryBytes / a.MemBandwidth,
		LineVisitSec: a.GatherCost,
		MissSec:      a.MissLatency,
		RowSec:       a.RowOverhead,
		VecByteSec:   1 / a.MemBandwidth,
	}
}

// SpMVCost describes one SpMV sweep y = Mx for pricing.
type SpMVCost struct {
	NNZ        int    // stored entries of M
	Rows       int    // rows of M (output length)
	LineVisits int    // sum over rows of distinct x cache lines touched
	XMisses    uint64 // L1 misses on x accesses from the cache simulator
}

// SpMVTime returns the simulated seconds of one SpMV sweep on machine a.
func SpMVTime(a arch.Arch, c SpMVCost) float64 {
	k := ConstantsFor(a)
	return float64(c.NNZ)*k.EntrySec +
		float64(c.LineVisits)*k.LineVisitSec +
		float64(c.XMisses)*k.MissSec +
		float64(c.Rows)*k.RowSec +
		float64(c.Rows)*8*k.VecByteSec // streaming the output vector
}

// IterCost describes one PCG iteration for pricing.
type IterCost struct {
	A    SpMVCost // the y = Ap product
	G    SpMVCost // the t = Gr product of the preconditioner
	GT   SpMVCost // the z = Gᵀt product
	Rows int      // system size n (vector operations)
}

// IterTime returns the simulated seconds of one PCG iteration: three SpMV
// sweeps plus the dot products and AXPY updates, which stream ~10 vector
// reads/writes of length n per iteration.
func IterTime(a arch.Arch, c IterCost) float64 {
	k := ConstantsFor(a)
	t := SpMVTime(a, c.A) + SpMVTime(a, c.G) + SpMVTime(a, c.GT)
	t += float64(10*c.Rows*8) * k.VecByteSec
	return t
}

// SolveTime returns iterations × IterTime.
func SolveTime(a arch.Arch, c IterCost, iterations int) float64 {
	return float64(iterations) * IterTime(a, c)
}

// SetupCost describes preconditioner-construction work for pricing; the
// fields mirror fsai.SetupStats.
type SetupCost struct {
	DirectFlops  float64 // exact local solves
	PrecalcFlops float64 // loose-tolerance CG precalculation, dense model (iters·2m² per row)
	PatternOps   float64 // symbolic pattern entries visited
	Rows         int     // local systems set up (extraction/orchestration)
}

// SetupTime returns the simulated seconds of a preconditioner setup:
// numerical flops at the machine's effective dense-kernel rate, symbolic
// pattern work at a few bytes of traffic per visited entry.
func SetupTime(a arch.Arch, c SetupCost) float64 {
	return (c.DirectFlops+c.PrecalcFlops)/a.SetupFlops +
		c.PatternOps*16/a.MemBandwidth +
		float64(c.Rows)*5e-8 + // per-row extraction/orchestration
		1e-4 // fixed setup overhead
}

// PrecondGFlops returns the Gflop/s achieved by the preconditioning
// operation GᵀGp (the Figure 4 metric): 4 flops per stored entry of G
// (multiply-add in each of the two products) over the two sweeps' time.
func PrecondGFlops(a arch.Arch, g, gt SpMVCost) float64 {
	flops := 4 * float64(g.NNZ)
	t := SpMVTime(a, g) + SpMVTime(a, gt)
	if t <= 0 {
		return 0
	}
	return flops / t / 1e9
}
