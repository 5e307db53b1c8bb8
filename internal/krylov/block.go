// The PCG loop: solveBlock runs k solves A x_j = b_j against one operator
// in a single iteration loop, so every sweep over A (and over the FSAI
// factors) serves all k columns through the SpMM kernels — the per-RHS
// matrix traffic drops k-fold, which is the bandwidth→compute shift the
// batched service path is built on. It is the package's only iteration
// loop: Solve is the k = 1 block.
//
// Two recurrence modes:
//
//   - Decoupled (default): each column keeps its own scalar α/β recurrence;
//     only the sparse sweeps are batched. Column j then executes exactly
//     the kernel sequence of a k = 1 solve, so its result is bit-identical
//     to an unbatched solve of that column — the invariant the service
//     batcher relies on (batched responses must equal unbatched ones
//     bit-for-bit).
//
//   - Coupled (BlockOptions.Coupled): the classical O'Leary block-CG
//     recurrence with k×k Gram matrices (α and β become small dense
//     solves against PᵀAP and RᵀZ via Cholesky). It shares search
//     information across columns and typically converges in fewer
//     iterations, at the cost of bit-comparability with scalar solves.
//     With one (remaining) column the Gram systems are 1×1 and the
//     recurrence degenerates to the scalar one exactly.
//
// Both modes track convergence per column and deflate finished columns out
// of the active block: converged, broken-down, stagnated, budget-exhausted
// or deadline-cancelled columns stop consuming sweeps without poisoning the
// rest of the batch.
package krylov

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// BlockPreconditioner is a Preconditioner that can apply itself to a
// column-major block of k residuals in one batched pass. SolveBlock uses
// it when available; otherwise it falls back to column-wise Apply (which
// is arithmetically identical, just without the batched matrix traffic).
type BlockPreconditioner interface {
	Preconditioner
	ApplyBlock(z, r []float64, k int)
}

// ApplyBlock copies each residual column (plain CG).
func (Identity) ApplyBlock(z, r []float64, k int) { copy(z, r) }

// ApplyBlock applies the diagonal scaling to each column.
func (j *Jacobi) ApplyBlock(z, r []float64, k int) {
	n := len(j.InvDiag)
	for c := 0; c < k; c++ {
		j.Apply(z[c*n:(c+1)*n], r[c*n:(c+1)*n])
	}
}

// BlockOptions configures a block solve. The scalar fields mirror Options;
// see there for semantics.
type BlockOptions struct {
	Tol     float64
	MaxIter int
	Workers int
	// RecordHistory stores per-column relative residuals (in each column's
	// Result.History) for the iterations the column was active.
	RecordHistory bool
	// Progress and ProgressDetail receive per-iteration snapshots carrying
	// the worst (largest) relative residual across the columns that
	// completed the iteration, so one batch shows up as one converging
	// solve on live observability surfaces. Converged is set only once
	// every column has converged. When a column ends in a breakdown or a
	// cancellation, one final ProgressDetail snapshot carries its status.
	Progress       func(iter int, relres float64)
	ProgressDetail func(ProgressInfo)
	CollectTiming  bool
	Metrics        *telemetry.Registry
	// Ctx cancels the whole block cooperatively (all remaining columns
	// return StatusCancelled with resumable checkpoints).
	Ctx context.Context
	// CancelCheckEvery is the context poll cadence in iterations (default 32).
	CancelCheckEvery int
	// ColumnCtx, when non-nil (length k, nil entries allowed), cancels
	// individual columns: a column whose context expires — a batched job's
	// client deadline — deflates out of the block with StatusCancelled and
	// a resumable checkpoint, while the remaining columns keep iterating.
	ColumnCtx []context.Context
	// Coupled selects the O'Leary k×k-Gram recurrence instead of the
	// default decoupled (bit-identical per column) one.
	Coupled bool

	// The scalar Solve's extras, set only by Solve: per-column start state
	// (Options.Resume), the stagnation guard (Options.StagnationWindow) and
	// the "cg-solve" span shape.
	resume     []*Checkpoint
	stagnation int
	scalar     bool
}

// BlockResult reports the outcome of a block solve.
type BlockResult struct {
	// Columns holds one scalar-shaped Result per right-hand side, in input
	// order: iterations the column was active, its typed status, final
	// relative residual, optional history, and a checkpoint on
	// non-converged termination.
	Columns []Result
	// Iterations is the number of block iterations executed (the max over
	// columns).
	Iterations int
	// Timing is the kernel-class breakdown of the whole block solve when
	// CollectTiming is set.
	Timing Timing
	// AllConverged reports whether every column converged.
	AllConverged bool
}

// SolveBlock runs preconditioned CG on A X = B for k column-major
// right-hand sides (column j of B is b[j*n:(j+1)*n]), starting from X = 0.
// The solutions overwrite x (same layout). See the package comment above
// for the recurrence modes and deflation semantics.
func SolveBlock(a *sparse.CSR, x, b []float64, k int, m Preconditioner, opt BlockOptions) BlockResult {
	if k < 1 || len(x) != k*a.Rows || len(b) != k*a.Rows {
		panic("krylov: SolveBlock dimensions")
	}
	return runLoop(a, x, b, k, m, opt)
}

// runLoop runs the loop under the pprof label phase=cg merged into the
// context's existing labels (the service adds job_id/trace_id/fingerprint),
// so captured CPU profile windows attribute solver samples to the owning
// job — including on the pooled kernel workers, which adopt the labels per
// dispatch.
func runLoop(a *sparse.CSR, x, b []float64, k int, m Preconditioner, opt BlockOptions) BlockResult {
	if opt.Ctx == nil {
		return solveBlock(a, x, b, k, m, opt)
	}
	var res BlockResult
	prof.WithPhase(opt.Ctx, prof.PhaseCG, func(ctx context.Context) {
		o := opt
		o.Ctx = ctx
		res = solveBlock(a, x, b, k, m, o)
	})
	return res
}

func solveBlock(a *sparse.CSR, x, b []float64, k int, m Preconditioner, opt BlockOptions) BlockResult {
	n := a.Rows
	if m == nil {
		m = Identity{}
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10000
	}
	if opt.Workers <= 0 {
		// Resolve "all CPUs" once here rather than deferring the <=0
		// convention to every kernel call.
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.CancelCheckEvery <= 0 {
		opt.CancelCheckEvery = 32
	}
	collect := opt.CollectTiming
	var hSpMV, hPrecond, hBlas1 *telemetry.Histogram
	var iterCtr *telemetry.Counter
	if collect && opt.Metrics != nil {
		opt.Metrics.SetHelp("krylov_iter_spmv_ns", "per-iteration SpMV wall time")
		opt.Metrics.SetHelp("krylov_iter_precond_ns", "per-iteration preconditioner-apply wall time")
		opt.Metrics.SetHelp("krylov_iter_blas1_ns", "per-iteration BLAS-1 (dot/AXPY/norm) wall time")
		opt.Metrics.SetHelp("krylov_iterations", "completed CG/PCG iterations")
		buckets := telemetry.ExpBuckets(100, 10, 8) // 100 ns … 1 s per section
		hSpMV = opt.Metrics.Histogram("krylov.iter.spmv_ns", buckets)
		hPrecond = opt.Metrics.Histogram("krylov.iter.precond_ns", buckets)
		hBlas1 = opt.Metrics.Histogram("krylov.iter.blas1_ns", buckets)
		iterCtr = opt.Metrics.Counter("krylov.iterations")
	}
	// Kernel-layer attribution: the partition plan's residual SpMV load
	// imbalance and, at the end of the solve, how many pooled dispatches the
	// solve issued. Both land in the run report / Prometheus surface.
	var dispatches0 int64
	if opt.Metrics != nil {
		opt.Metrics.SetHelp("kernels_pool_dispatches", "parallel-pool task dispatches issued by solves")
		opt.Metrics.SetHelp("kernels_spmv_imbalance_pct", "residual nnz load imbalance of the SpMV partition plan")
		dispatches0 = kernels.PoolDispatches()
		imb := 0.0
		if opt.Workers > 1 {
			imb = a.PartitionPlan(opt.Workers).ImbalancePct
		}
		opt.Metrics.Gauge("kernels.spmv.imbalance_pct").Set(imb)
	}
	eng := kernels.New(n, opt.Workers)
	if opt.Ctx != nil {
		// Pooled kernel dispatches adopt the solve's pprof labels; the
		// preconditioner's own engine (FSAI's two G sweeps) gets the same
		// treatment when it supports it.
		eng.SetLabelContext(opt.Ctx)
		if lc, ok := m.(interface{ SetLabelContext(context.Context) }); ok {
			lc.SetLabelContext(opt.Ctx)
		}
	}
	var start, t0 time.Time
	if collect {
		start = time.Now()
	}
	// When the caller's context carries a request trace (the solve service),
	// the whole loop becomes one span of that request's tree. No-op
	// otherwise (nil span).
	spanName := "block-cg-solve"
	if opt.scalar {
		spanName = "cg-solve"
	}
	span := trace.StartSpan(opt.Ctx, spanName)

	res := BlockResult{Columns: make([]Result, k)}
	cols := res.Columns
	for c := range cols {
		cols[c].RelResidual = 1
	}

	// Work blocks. A block solve takes them from the size-keyed scratch
	// pool, so repeated batches at the same (rows × k) reuse them. A k = 1
	// solve iterates in x itself (its one slot never moves) and allocates
	// its four vectors: they are garbage the next GC reclaims. Pooled, they
	// would stay resident between solves, and a stream of scalar solves
	// that makes no garbage triggers no collection, so every other pooled
	// block stays resident too.
	var xw, r, z, p, q []float64
	if k == 1 {
		xw, r, z, p, q = x[:n], make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	} else {
		xw, r, z, p, q = kernels.GetBlockScratch(n*k), kernels.GetBlockScratch(n*k),
			kernels.GetBlockScratch(n*k), kernels.GetBlockScratch(n*k), kernels.GetBlockScratch(n*k)
		defer func() {
			for _, v := range [][]float64{xw, r, z, p, q} {
				kernels.PutBlockScratch(v)
			}
		}()
	}
	col := func(v []float64, s int) []float64 { return v[s*n : (s+1)*n] }

	// Slot bookkeeping: active columns live compacted in slots [0,nact);
	// colOf maps a slot back to its input column. Deflation compacts
	// stably, preserving relative column order (deterministic results).
	colOf := make([]int, k)
	bnorm := make([]float64, k) // indexed by input column
	rzv := make([]float64, k)   // per-slot rᵀz (decoupled mode)
	relv := make([]float64, k)  // per-slot current relative residual
	base := make([]int, k)      // per-slot iterations done before this solve (Resume)
	fresh := make([]bool, k)    // per-slot: search direction still to be built
	bestRel := make([]float64, k)
	bestIter := make([]int, k) // per-slot stagnation guard state
	dead := make([]bool, k)    // per-slot: terminated, compact out
	rr := make([]float64, k)
	nact, ndead, nfail := 0, 0, 0

	// terminate finalizes the column in slot s (status, residual, optional
	// checkpoint) and copies its iterate to the output block. It does NOT
	// compact; callers mark the slot dead and compact afterwards.
	terminate := func(s int, status Status, rel float64, cp *Checkpoint) {
		c := colOf[s]
		cols[c].Status = status
		cols[c].Converged = status == StatusConverged
		cols[c].RelResidual = rel
		cols[c].Checkpoint = cp
		copy(col(x, c), col(xw, s))
		if status != StatusConverged {
			nfail++
		}
		dead[s] = true
		ndead++
	}
	record := func(c int, rel float64) {
		if opt.RecordHistory {
			cols[c].History = append(cols[c].History, rel)
		}
	}
	// resumable is the checkpoint of a column stopped mid-recurrence: the
	// full state in decoupled mode; only the iterate in coupled mode, whose
	// search directions are coupled across columns.
	resumable := func(s, iter int) *Checkpoint {
		if opt.Coupled {
			return warmCheckpoint(iter, col(xw, s), col(r, s))
		}
		return snapshotCheckpoint(iter, col(xw, s), col(r, s), col(p, s), rzv[s])
	}

	finish := func() BlockResult {
		if collect {
			res.Timing.Total = time.Since(start)
		}
		if opt.Metrics != nil {
			opt.Metrics.Counter("kernels.pool.dispatches").Add(kernels.PoolDispatches() - dispatches0)
		}
		res.AllConverged = true
		last := -1 // last column that broke down or was cancelled
		for c := range cols {
			if !cols[c].Converged {
				res.AllConverged = false
				if cols[c].Status != StatusMaxIter {
					last = c
				}
			}
			if cols[c].Iterations > res.Iterations {
				res.Iterations = cols[c].Iterations
			}
		}
		if opt.scalar {
			span.SetAttr("status", cols[0].Status.String())
		} else {
			span.SetAttr("columns", fmt.Sprint(k))
		}
		span.SetAttr("iterations", fmt.Sprint(res.Iterations))
		span.End()
		// A breakdown or cancellation ends a column between the
		// per-iteration emissions: one final snapshot carries its status, so
		// stream watchers see the end instead of a vanishing solve.
		if last >= 0 && opt.ProgressDetail != nil {
			opt.ProgressDetail(ProgressInfo{
				Iteration: res.Iterations,
				RelRes:    cols[last].RelResidual,
				Status:    cols[last].Status,
				Timing:    res.Timing,
			})
		}
		return res
	}

	// Start state per column: x = 0, or the Resume checkpoint's iterate (and
	// residual and, for an exact resume, search direction).
	needApply := false
	for c := 0; c < k; c++ {
		s, bc := nact, col(b, c)
		colOf[s] = c
		xs, rs := col(xw, s), col(r, s)
		Fill(xs, 0)
		copy(rs, bc)
		bnorm[c] = eng.Norm2(bc)
		if bnorm[c] == 0 {
			terminate(s, StatusConverged, 0, nil)
			continue
		}
		var cp *Checkpoint
		if opt.resume != nil {
			cp = opt.resume[c]
		}
		base[s], fresh[s] = 0, true
		if cp != nil && len(cp.X) == n {
			copy(xs, cp.X)
			base[s] = cp.Iter
			cols[c].Iterations = cp.Iter
			if len(cp.R) == n {
				copy(rs, cp.R)
			} else {
				// Recompute r = b - A x from the restored iterate.
				qs := col(q, s)
				eng.SpMV(a, qs, xs)
				for i := range rs {
					rs[i] = bc[i] - qs[i]
				}
			}
			if len(cp.P) == n && !math.IsNaN(cp.RZ) && cp.RZ > 0 {
				copy(col(p, s), cp.P)
				rzv[s] = cp.RZ
				fresh[s] = false
			}
		}
		rel := eng.Norm2(rs) / bnorm[c]
		relv[s] = rel
		cols[c].RelResidual = rel
		record(c, rel)
		if math.IsNaN(rel) || math.IsInf(rel, 0) {
			terminate(s, StatusNaNOrInf, rel, nil)
			continue
		}
		if rel <= opt.Tol {
			// A resumed solve can arrive already converged.
			terminate(s, StatusConverged, rel, nil)
			continue
		}
		bestRel[s], bestIter[s] = rel, base[s]
		needApply = needApply || fresh[s]
		nact++
	}
	// Columns finished at the start borrowed slot nact only to copy their
	// iterate out; no active slot is dead.
	clear(dead)
	ndead = 0

	if nact == 0 {
		return finish()
	}

	applyBlock := func(ka int) time.Duration {
		if collect {
			t0 = time.Now()
		}
		if bp, ok := m.(BlockPreconditioner); ok {
			bp.ApplyBlock(z[:ka*n], r[:ka*n], ka)
		} else {
			for s := 0; s < ka; s++ {
				m.Apply(col(z, s), col(r, s))
			}
		}
		if !collect {
			return 0
		}
		d := time.Since(t0)
		res.Timing.Precond += d
		return d
	}

	// Initial preconditioned residual, search block and Gram state.
	var gamma, gnew, gfac, alphaM, betaM []float64
	if opt.Coupled {
		gamma = make([]float64, k*k)
		gnew = make([]float64, k*k)
		gfac = make([]float64, k*k)
		alphaM = make([]float64, k*k)
		betaM = make([]float64, k*k)
	}
	if needApply {
		applyBlock(nact)
		if opt.Coupled && nact > 1 {
			copy(p[:nact*n], z[:nact*n])
			eng.BlockDot(r[:nact*n], z[:nact*n], nact, gamma)
			for s := 0; s < nact; s++ {
				rzv[s] = gamma[s+s*nact]
			}
		} else {
			for s := 0; s < nact; s++ {
				if fresh[s] {
					copy(col(p, s), col(z, s))
					rzv[s] = eng.Dot(col(r, s), col(z, s))
				}
			}
			if opt.Coupled {
				gamma[0] = rzv[0]
			}
		}
	}

	// gramBreakdown factors the Gram matrix in gfac. When that fails — the
	// block analogue of the scalar pᵀAp ≤ 0 breakdown — every active column
	// ends with its last good iterate (after iters iterations) as a warm
	// checkpoint.
	gramBreakdown := func(ka, iters int) bool {
		nan := hasNaN(gfac[:ka*ka])
		if !nan && cholFactor(gfac, ka) {
			return false
		}
		status := StatusIndefinite
		if nan {
			status = StatusNaNOrInf
		}
		for s := 0; s < ka; s++ {
			terminate(s, status, relv[s], warmCheckpoint(base[s]+iters, col(xw, s), col(r, s)))
		}
		return true
	}

	// compact removes dead slots, stably. In coupled mode the Gram matrix
	// over the surviving slots is the corresponding submatrix of gamma.
	compact := func() {
		if ndead == 0 {
			return
		}
		alive := 0
		for s := 0; s < nact; s++ {
			if dead[s] {
				continue
			}
			if s != alive {
				copy(col(xw, alive), col(xw, s))
				copy(col(r, alive), col(r, s))
				copy(col(p, alive), col(p, s))
				colOf[alive] = colOf[s]
				rzv[alive] = rzv[s]
				relv[alive] = relv[s]
				base[alive] = base[s]
				bestRel[alive], bestIter[alive] = bestRel[s], bestIter[s]
			}
			alive++
		}
		if opt.Coupled && alive > 0 {
			// gamma indices are slot-based: extract the surviving
			// rows/columns in their (stable) new order.
			keep := make([]int, 0, alive)
			for s := 0; s < nact; s++ {
				if !dead[s] {
					keep = append(keep, s)
				}
			}
			for j, oj := range keep {
				for i, oi := range keep {
					gnew[i+j*alive] = gamma[oi+oj*nact]
				}
			}
			copy(gamma[:alive*alive], gnew[:alive*alive])
		}
		for s := 0; s < nact; s++ {
			dead[s] = false
		}
		nact, ndead = alive, 0
	}

	for it := 0; ; it++ {
		// Per-column budget: with Resume the cap applies to the total
		// (resumed-from plus new) iteration count. An exhausted column
		// carries a checkpoint so a caller can grant more budget.
		for s := 0; s < nact; s++ {
			if base[s]+it >= opt.MaxIter {
				terminate(s, StatusMaxIter, relv[s], resumable(s, opt.MaxIter))
			}
		}
		if it%opt.CancelCheckEvery == 0 {
			all := opt.Ctx != nil && opt.Ctx.Err() != nil
			for s := 0; s < nact; s++ {
				if dead[s] {
					continue
				}
				if all || (opt.ColumnCtx != nil && opt.ColumnCtx[colOf[s]] != nil && opt.ColumnCtx[colOf[s]].Err() != nil) {
					// A cancelled column (a batched job's expired deadline)
					// deflates out with a resumable checkpoint; the last
					// residual is already in its history.
					terminate(s, StatusCancelled, relv[s], resumable(s, base[s]+it))
				}
			}
		}
		compact()
		if nact == 0 {
			return finish()
		}
		ka := nact

		if collect {
			t0 = time.Now()
		}
		eng.SpMM(a, q[:ka*n], p[:ka*n], ka)
		if faultinject.Enabled() {
			for s := 0; s < ka; s++ {
				faultinject.SpMVOut(base[s]+it+1, col(q, s))
			}
		}
		if collect {
			d := time.Since(t0)
			res.Timing.SpMV += d
			hSpMV.Observe(float64(d.Nanoseconds()))
			t0 = time.Now()
		}

		if opt.Coupled && ka > 1 {
			// δ = PᵀQ; Alpha = δ⁻¹γ via Cholesky. A failed factorization is
			// the block analogue of the scalar pᵀAp breakdown: every active
			// column ends with its last good iterate as a warm checkpoint.
			eng.BlockDot(p[:ka*n], q[:ka*n], ka, gfac)
			if gramBreakdown(ka, it) {
				if collect {
					res.Timing.BLAS1 += time.Since(t0)
				}
				return finish()
			}
			copy(alphaM[:ka*ka], gamma[:ka*ka])
			cholSolve(gfac, ka, alphaM)
			eng.BlockXRUpdate(alphaM[:ka*ka], p[:ka*n], q[:ka*n], xw[:ka*n], r[:ka*n], ka, rr)
			for s := 0; s < ka; s++ {
				relv[s] = math.Sqrt(rr[s]) / bnorm[colOf[s]]
			}
		} else {
			// Decoupled: per-column scalar recurrence over the batched
			// sweeps. The fused update does x += αp, r -= αap and ‖r‖² in
			// one sweep; its serial path is bit-identical to the separate
			// kernels.
			for s := 0; s < ka; s++ {
				ps, qs := col(p, s), col(q, s)
				pap := eng.Dot(ps, qs)
				if pap <= 0 || math.IsNaN(pap) || math.IsInf(pap, 0) {
					// Breakdown: the operator (or the preconditioned one)
					// lost positive definiteness in finite precision, or a
					// NaN/Inf entered the recurrence. The iterate and
					// residual are still the last good state, so they are
					// handed back as a warm checkpoint; the direction is
					// what broke, so it is dropped.
					status := StatusIndefinite
					if math.IsNaN(pap) || math.IsInf(pap, 0) {
						status = StatusNaNOrInf
					}
					c := colOf[s]
					rel := eng.Norm2(col(r, s)) / bnorm[c]
					record(c, rel)
					terminate(s, status, rel, warmCheckpoint(base[s]+it, col(xw, s), col(r, s)))
					continue
				}
				alpha := rzv[s] / pap
				rr[s] = eng.XRUpdate(alpha, ps, qs, col(xw, s), col(r, s))
				relv[s] = math.Sqrt(rr[s]) / bnorm[colOf[s]]
			}
		}
		if collect {
			d := time.Since(t0)
			res.Timing.BLAS1 += d
			hBlas1.Observe(float64(d.Nanoseconds()))
		}

		// Convergence, NaN and stagnation marking for the columns updated
		// this iteration. worst is the largest finite relative residual
		// among them (converged columns included, so the closing residual
		// is emitted); progIter is the largest iteration count.
		worst, progIter, updated := 0.0, 0, 0
		for s := 0; s < ka; s++ {
			if dead[s] {
				continue
			}
			c := colOf[s]
			rel := relv[s]
			updated++
			cols[c].Iterations = base[s] + it + 1
			cols[c].RelResidual = rel
			record(c, rel)
			if math.IsNaN(rel) || math.IsInf(rel, 0) {
				// The iterate itself may be poisoned; no checkpoint to offer.
				terminate(s, StatusNaNOrInf, rel, nil)
				continue
			}
			worst = math.Max(worst, rel)
			progIter = max(progIter, cols[c].Iterations)
			if rel <= opt.Tol {
				terminate(s, StatusConverged, rel, nil)
				continue
			}
			if opt.stagnation > 0 {
				if rel < bestRel[s]*(1-StagnationRelImprovement) {
					bestRel[s], bestIter[s] = rel, cols[c].Iterations
				} else if cols[c].Iterations-bestIter[s] >= opt.stagnation {
					terminate(s, StatusStagnation, rel, warmCheckpoint(cols[c].Iterations, col(xw, s), col(r, s)))
				}
			}
		}
		iterCtr.Add(int64(updated))
		compact()
		if progIter > 0 {
			if opt.Progress != nil {
				opt.Progress(progIter, worst)
			}
			if opt.ProgressDetail != nil {
				info := ProgressInfo{Iteration: progIter, RelRes: worst, Converged: nact == 0 && nfail == 0, Timing: res.Timing}
				if collect {
					info.Timing.Total = time.Since(start)
				}
				opt.ProgressDetail(info)
			}
		}
		if nact == 0 {
			return finish()
		}

		if d := applyBlock(nact); collect {
			hPrecond.Observe(float64(d.Nanoseconds()))
			t0 = time.Now()
		}
		ka = nact
		if opt.Coupled && ka > 1 {
			// γ_new = RᵀZ; Beta = γ⁻¹γ_new (γ over the surviving slots).
			eng.BlockDot(r[:ka*n], z[:ka*n], ka, gnew)
			copy(gfac[:ka*ka], gamma[:ka*ka])
			if gramBreakdown(ka, it+1) {
				if collect {
					res.Timing.BLAS1 += time.Since(t0)
				}
				return finish()
			}
			copy(betaM[:ka*ka], gnew[:ka*ka])
			cholSolve(gfac, ka, betaM)
			eng.BlockXpay(z[:ka*n], betaM[:ka*ka], p[:ka*n], ka)
			copy(gamma[:ka*ka], gnew[:ka*ka])
			for s := 0; s < ka; s++ {
				rzv[s] = gamma[s+s*ka]
			}
		} else {
			for s := 0; s < ka; s++ {
				rs, zs := col(r, s), col(z, s)
				rzNew := eng.Dot(rs, zs)
				beta := rzNew / rzv[s]
				eng.Xpay(zs, beta, col(p, s))
				rzv[s] = rzNew
			}
			if opt.Coupled && ka == 1 {
				gamma[0] = rzv[0]
			}
		}
		if collect {
			res.Timing.BLAS1 += time.Since(t0)
		}
	}
}

// hasNaN reports whether the small Gram matrix picked up a NaN/Inf.
func hasNaN(a []float64) bool {
	for _, v := range a {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// cholFactor factors the column-major k×k SPD matrix a in place (lower
// triangle; the strict upper triangle is left untouched). It returns false
// on a non-positive pivot — the breakdown-safe guard of the block
// recurrence, the k×k analogue of the scalar pᵀAp ≤ 0 check.
func cholFactor(a []float64, k int) bool {
	for j := 0; j < k; j++ {
		d := a[j+j*k]
		for l := 0; l < j; l++ {
			d -= a[j+l*k] * a[j+l*k]
		}
		if !(d > 0) || math.IsInf(d, 0) {
			return false
		}
		d = math.Sqrt(d)
		a[j+j*k] = d
		for i := j + 1; i < k; i++ {
			s := a[i+j*k]
			for l := 0; l < j; l++ {
				s -= a[i+l*k] * a[j+l*k]
			}
			a[i+j*k] = s / d
		}
	}
	return true
}

// cholSolve solves L Lᵀ X = B in place for a column-major k×k
// right-hand-side block B, with L the factor computed by cholFactor.
func cholSolve(l []float64, k int, b []float64) {
	for col := 0; col < k; col++ {
		bc := b[col*k : (col+1)*k]
		for i := 0; i < k; i++ {
			s := bc[i]
			for j := 0; j < i; j++ {
				s -= l[i+j*k] * bc[j]
			}
			bc[i] = s / l[i+i*k]
		}
		for i := k - 1; i >= 0; i-- {
			s := bc[i]
			for j := i + 1; j < k; j++ {
				s -= l[j+i*k] * bc[j]
			}
			bc[i] = s / l[i+i*k]
		}
	}
}
