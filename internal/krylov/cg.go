package krylov

import (
	"context"
	"time"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Preconditioner applies an approximate inverse: z = M r with M ≈ A⁻¹.
// Implementations must treat z and r as distinct, caller-owned buffers.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Identity is the no-op preconditioner (plain CG).
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi is the diagonal (point Jacobi) preconditioner z_i = r_i / a_ii.
type Jacobi struct {
	InvDiag []float64
	// NegDiag counts diagonal entries that were negative and got the
	// magnitude fallback 1/|a_ii|; ZeroDiag counts exact zeros that fell
	// back to 1. Either is a red flag for an SPD solve — publish them with
	// PublishWarnings so the telemetry surface sees the repair.
	NegDiag, ZeroDiag int
}

// NewJacobi builds a Jacobi preconditioner from the diagonal of A. A negative
// diagonal entry would flip the sign of z and destroy the PCG inner-product
// structure, so it falls back to 1/|a_ii|; zero entries fall back to 1 (no
// scaling). Both repairs are counted on the returned preconditioner.
func NewJacobi(a *sparse.CSR) *Jacobi {
	d := a.Diag()
	inv := make([]float64, len(d))
	j := &Jacobi{InvDiag: inv}
	for i, v := range d {
		switch {
		case v > 0:
			inv[i] = 1 / v
		case v < 0:
			inv[i] = 1 / -v
			j.NegDiag++
		default:
			inv[i] = 1
			j.ZeroDiag++
		}
	}
	return j
}

// PublishWarnings records the diagonal repairs in reg as warning counters
// ("krylov.jacobi.neg_diag_fixed", "krylov.jacobi.zero_diag_fixed").
// Nil-safe on both receiver and registry.
func (j *Jacobi) PublishWarnings(reg *telemetry.Registry) {
	if j == nil || reg == nil {
		return
	}
	if j.NegDiag > 0 {
		reg.Counter("krylov.jacobi.neg_diag_fixed").Add(int64(j.NegDiag))
	}
	if j.ZeroDiag > 0 {
		reg.Counter("krylov.jacobi.zero_diag_fixed").Add(int64(j.ZeroDiag))
	}
}

// Apply computes z = D⁻¹ r.
func (j *Jacobi) Apply(z, r []float64) {
	for i := range r {
		z[i] = r[i] * j.InvDiag[i]
	}
}

// Options configures a CG/PCG solve.
type Options struct {
	// Tol is the convergence threshold on ||r_k||₂ / ||r₀||₂. The paper
	// uses 1e-8 (initial residual reduced by eight orders of magnitude).
	Tol float64
	// MaxIter caps the iteration count; the paper excludes matrices that
	// need more than 10000 FSAI-preconditioned iterations. With Resume the
	// cap applies to the total (resumed-from plus new) iteration count.
	MaxIter int
	// Workers sets the SpMV parallelism (<=0: all CPUs, 1: serial).
	Workers int
	// RecordHistory stores ||r_k||/||r₀|| per iteration in Result.History.
	RecordHistory bool
	// Progress, when non-nil, is called after every completed iteration
	// with the 1-based iteration number and the current relative residual.
	// It runs on the solver goroutine; keep it cheap.
	Progress func(iter int, relres float64)
	// ProgressDetail, when non-nil, is called after every completed
	// iteration (after Progress) with a richer snapshot: the running
	// kernel-class timing breakdown is populated when CollectTiming is set,
	// zero otherwise. On a terminal breakdown or cancellation one final
	// snapshot with Status set is emitted, so stream watchers never see a
	// solve vanish mid-flight. It runs on the solver goroutine; keep it
	// cheap. This is the hook live observability (obs.SolveWatcher) plugs
	// into.
	ProgressDetail func(ProgressInfo)
	// CollectTiming enables the per-iteration wall-clock breakdown (SpMV
	// vs. preconditioner-apply vs. BLAS-1) returned in Result.Timing. Off
	// by default so the inner loop carries no clock calls.
	CollectTiming bool
	// Metrics, when non-nil (and CollectTiming is set), receives
	// per-iteration timing histograms ("krylov.iter.spmv_ns",
	// "krylov.iter.precond_ns", "krylov.iter.blas1_ns") and the
	// "krylov.iterations" counter.
	Metrics *telemetry.Registry

	// Ctx, when non-nil, cancels the solve cooperatively: it is checked
	// every CancelCheckEvery iterations and on cancellation the solve
	// returns StatusCancelled with a resumable Result.Checkpoint.
	Ctx context.Context
	// CancelCheckEvery is the Ctx poll interval in iterations (default 32).
	CancelCheckEvery int
	// Resume, when non-nil, continues a previous solve instead of starting
	// from x = 0: a full checkpoint (P set) restores the exact recurrence;
	// a warm checkpoint (P nil) restarts from the saved iterate with a
	// fresh search direction (residual recomputed when R is nil).
	Resume *Checkpoint
	// StagnationWindow, when > 0, declares breakdown (StatusStagnation)
	// after that many consecutive iterations without a relative-residual
	// improvement of at least StagnationRelImprovement. Off by default: a
	// plain CG plateau can recover, so only recovery-aware callers (the
	// resilience layer) should arm it.
	StagnationWindow int
}

// StagnationRelImprovement is the minimum relative residual decrease that
// counts as progress for the stagnation guard: rel < best*(1-this).
const StagnationRelImprovement = 1e-3

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{Tol: 1e-8, MaxIter: 10000, Workers: 1}
}

// Timing is the wall-clock breakdown of a solve, split by the three kernel
// classes of the Section 2.1 loop. Populated when Options.CollectTiming is
// set; all fields zero otherwise.
type Timing struct {
	SpMV    time.Duration // y = Ap products
	Precond time.Duration // z = M r applications (for FSAI: two more SpMVs)
	BLAS1   time.Duration // dot products, AXPYs, norms
	Total   time.Duration // whole Solve call
}

// ProgressInfo is the per-iteration snapshot passed to
// Options.ProgressDetail.
type ProgressInfo struct {
	// Iteration is the 1-based completed iteration count.
	Iteration int
	// RelRes is the current relative residual ||r_k||/||r₀||.
	RelRes float64
	// Converged reports whether this iteration reached the tolerance.
	Converged bool
	// Status is StatusUnknown for ordinary mid-flight snapshots and the
	// terminal status on the final snapshot of a breakdown or cancellation.
	Status Status
	// Timing is the running kernel-class breakdown (Total included) when
	// Options.CollectTiming is set; the zero value otherwise.
	Timing Timing
}

// Result reports the outcome of a CG/PCG solve.
type Result struct {
	Iterations  int
	Converged   bool
	Status      Status    // typed termination diagnosis
	RelResidual float64   // final ||r||/||r₀||
	History     []float64 // per-iteration relative residuals if recorded
	Timing      Timing    // kernel-class breakdown if CollectTiming was set
	// Checkpoint is a resumable snapshot on non-converged termination:
	// a full checkpoint on cancellation, a warm (iterate-only) checkpoint
	// on breakdown — the iterate is worth keeping, the direction is not.
	// Nil on convergence and max-iter exhaustion of a from-zero solve is
	// avoided too: max-iter also carries a full checkpoint so callers can
	// grant more budget and continue.
	Checkpoint *Checkpoint
}

// Solve runs preconditioned conjugate gradient on A x = b with the given
// preconditioner (nil or Identity{} for plain CG), starting from x = 0
// (or from Options.Resume). The solution overwrites x, which must have
// length A.Rows.
//
// The loop is the standard PCG recurrence of Section 2.1: one SpMV with A,
// one preconditioner application (for FSAI, two more SpMVs), two dot
// products and three AXPY-class updates per iteration. On top of it sit the
// robustness guards: indefinite-curvature and NaN/Inf detection, optional
// stagnation detection, cooperative cancellation and checkpointing. Every
// terminal path reports a typed Result.Status.
//
// Solve is the k = 1 case of the block loop (see SolveBlock): it returns
// that loop's only column with the block's timing, and traces as one
// "cg-solve" span when Options.Ctx carries a request trace.
func Solve(a *sparse.CSR, x, b []float64, m Preconditioner, opt Options) Result {
	br := runLoop(a, x, b, 1, m, BlockOptions{
		Tol:              opt.Tol,
		MaxIter:          opt.MaxIter,
		Workers:          opt.Workers,
		RecordHistory:    opt.RecordHistory,
		Progress:         opt.Progress,
		ProgressDetail:   opt.ProgressDetail,
		CollectTiming:    opt.CollectTiming,
		Metrics:          opt.Metrics,
		Ctx:              opt.Ctx,
		CancelCheckEvery: opt.CancelCheckEvery,
		resume:           []*Checkpoint{opt.Resume},
		stagnation:       opt.StagnationWindow,
		scalar:           true,
	})
	res := br.Columns[0]
	res.Timing = br.Timing
	return res
}
