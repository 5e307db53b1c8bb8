package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/cachesim"
	core "repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

const (
	// filter is the FSAIE extension filter the paper's evaluation uses.
	filter = 0.01
	// residualLimit bounds ‖b−Ax‖/‖b‖ of an accepted solve. PCG stops at
	// a 1e-8 reduction of its recurrence residual; the true residual may
	// drift from it, but not by two orders of magnitude.
	residualLimit = 1e-6
	// setupRounds is how many times a workload builds its set-up; set-up
	// time, and the cold figures taken in set-up, are their medians. One
	// more round comes first and is not counted: the first build in a
	// fresh process pays page faults and heap growth, and took up to 60%
	// longer than the rest.
	setupRounds = 7
	// intBytes is the size of one CSR index (Go int) on the 64-bit hosts
	// the benchmark runs on.
	intBytes = 8
)

// rhs draws a right-hand side the way the paper prescribes: uniform
// values in [-1, 1], normalised by the matrix max-norm.
func rhs(rng *rand.Rand, a *sparse.CSR) []float64 {
	b := make([]float64, a.Rows)
	fillRHS(rng, a, b)
	return b
}

// fillRHS draws a right-hand side into b, as rhs does.
func fillRHS(rng *rand.Rand, a *sparse.CSR, b []float64) {
	norm := a.MaxNorm()
	if norm == 0 {
		norm = 1
	}
	for i := range b {
		b[i] = (2*rng.Float64() - 1) / norm
	}
}

// residual returns ‖b−Ax‖/‖b‖, recomputed with sparse.CSR.MulVec into
// ax. The buffer is the caller's, so a timed loop can reuse it and leave
// no garbage of the benchmark's own for the GC.
func residual(ax []float64, a *sparse.CSR, x, b []float64) float64 {
	a.MulVec(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// checkSolve returns why a library solve is wrong, or "". ax is a buffer
// for residual.
func checkSolve(ax []float64, a *sparse.CSR, x, b []float64, r krylov.Result) string {
	if !r.Converged {
		return fmt.Sprintf("not converged: %v after %d iterations", r.Status, r.Iterations)
	}
	if rel := residual(ax, a, x, b); !(rel <= residualLimit) {
		return fmt.Sprintf("residual %.3g > %.0g", rel, residualLimit)
	}
	return ""
}

func fsaiOptions(v core.Variant, workers int) core.Options {
	o := core.DefaultOptions()
	o.Variant = v
	o.Filter = filter
	o.Workers = workers
	return o
}

// Span names of the setup phases core.Compute reports.
var phaseSpan = map[string]string{
	core.PhaseBasePattern: "core.setup.base_pattern",
	core.PhaseExtend:      "core.setup.extend",
	core.PhasePrecalc:     "core.setup.precalc",
	core.PhaseFilter:      "core.setup.filter",
	core.PhaseSolve:       "core.setup.frobenius",
	core.PhasePostFilter:  "core.setup.post_filter",
}

// addSetupSpans places the phase times core.Compute reported inside its
// span, one after the other.
func addSetupSpans(tr *Recorder, parent int, req int64, start int64, st core.SetupStats) {
	for _, ph := range st.Phases {
		tr.Add(phaseSpan[ph.Name], parent, req, start, start+ph.NS)
		start += ph.NS
	}
}

// addSolveSpans places the kernel-class times krylov collected inside the
// solve's span: SpMV with A, the preconditioner apply, BLAS-1.
func addSolveSpans(tr *Recorder, parent int, req int64, start int64, t krylov.Timing) {
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"krylov.spmv", t.SpMV}, {"krylov.precond", t.Precond}, {"krylov.blas1", t.BLAS1}} {
		tr.Add(p.name, parent, req, start, start+int64(p.d))
		start += int64(p.d)
	}
}

// tracedSolve runs one krylov.Solve inside span "krylov.solve" under root.
func tracedSolve(tr *Recorder, root int, req int64, a *sparse.CSR, x, b []float64, m krylov.Preconditioner, opt krylov.Options) krylov.Result {
	opt.CollectTiming = tr.on()
	start := tr.now()
	id := tr.Begin("krylov.solve", root, req)
	r := krylov.Solve(a, x, b, m, opt)
	tr.End(id)
	if tr.on() {
		addSolveSpans(tr, id, req, start, r.Timing)
	}
	return r
}

// setLedgerLayers copies the core/krylov self times of a ledger into the
// per-layer figures.
func setLedgerLayers(res *result, l ledger) {
	for _, n := range []string{"base_pattern", "extend", "precalc", "filter", "frobenius"} {
		res.layers["core.setup."+n+"_ms"] = l.ms("core.setup." + n)
	}
	res.layers["krylov.spmv_ms"] = l.ms("krylov.spmv")
	res.layers["krylov.precond_ms"] = l.ms("krylov.precond")
	res.layers["krylov.blas1_ms"] = l.ms("krylov.blas1")
	res.layers["krylov.self_ms"] = l.ms("krylov.solve")
	res.layers["ledger.residual_pct"] = l.residualPct
}

// csrBytes is the computed size of one CSR sweep's matrix stream:
// values, column indices and row pointers.
func csrBytes(m *sparse.CSR) float64 {
	return float64(m.NNZ()*(8+intBytes) + (m.Rows+1)*intBytes)
}

// setKernelModel records the computed bytes and flop/byte of the kernels
// one PCG iteration on a runs: SpMV with A, apply of G and Gᵀ, SpMM per
// right-hand side at width k, and the BLAS-1 sweeps. Bytes are derived
// from array sizes (each array streamed once), not measured.
func setKernelModel(res *result, a *sparse.CSR, p *core.Preconditioner, k int) {
	n := float64(a.Rows)
	spmv := csrBytes(a) + 16*n
	res.layers["sparse.spmv_bytes"] = spmv
	res.layers["sparse.spmv_flop_per_byte"] = 2 * float64(a.NNZ()) / spmv
	apply := csrBytes(p.G) + csrBytes(p.GT) + 32*n
	res.layers["core.apply_bytes"] = apply
	res.layers["core.apply_flop_per_byte"] = 2 * float64(p.G.NNZ()+p.GT.NNZ()) / apply
	spmm := csrBytes(a)/float64(k) + 16*n
	res.layers["sparse.spmm_bytes_per_rhs"] = spmm
	res.layers["sparse.spmm_flop_per_byte"] = 2 * float64(a.NNZ()) / spmm
	// Per iteration: pᵀAp (2 reads), XRUpdate (4 reads, 2 writes), rᵀz
	// (2 reads), p = z + βp (2 reads, 1 write): 13 sweeps, 12 flop/row.
	res.layers["kernels.blas1_bytes_per_iter"] = 13 * 8 * n
	res.layers["kernels.blas1_flop_per_byte"] = 12 * n / (13 * 8 * n)
}

// runSetupSuite: each pass runs FSAI and then FSAIE(full) (set-up plus
// PCG to 1e-8, one worker) on the ten quick-suite matrices.
func runSetupSuite(c *runCtx) (*result, error) {
	res := newResult()
	specs := matgen.QuickSuite()
	rng := rand.New(rand.NewSource(c.seed))
	type problem struct {
		name string
		a    *sparse.CSR
		b    []float64
	}
	var probs []problem
	var wsBytes float64
	for _, i := range rng.Perm(len(specs)) {
		a := specs[i].Generate()
		probs = append(probs, problem{specs[i].Name, a, rhs(rng, a)})
		wsBytes = math.Max(wsBytes, csrBytes(a)+24*float64(a.Rows))
	}
	kopt := krylov.DefaultOptions()
	kopt.Workers = 1

	// Per pass: FSAIE(full) set-up, PCG and time to solution summed over
	// the suite, FSAIE(full) ÷ FSAI time to solution, and the pass's wall
	// time. Per-pass sums, not per-matrix times: a matrix solves in 1-20
	// ms, so its percentiles measure the host's scheduling stalls more
	// than the solver.
	var setupS, pcgMS, ttsS, ttsRatio, passS, iters []float64
	last := make([]*core.Preconditioner, len(probs))
	var req int64
	var hs *heapSampler
	var rt runtimeDelta
	var deadline time.Time
	ops := 0
	// Whole passes only, so every matrix weighs the same in the samples.
	// Pass -1 warms the process up: it is checked but neither timed nor
	// traced.
	for passes := -1; passes <= 0 || time.Now().Before(deadline); passes++ {
		tr := c.tr
		if passes < 0 {
			tr = nil
		}
		if passes == 0 {
			hs, rt = startHeapSampler(), readRuntime()
			deadline = time.Now().Add(c.dur)
		}
		passStart := time.Now()
		var setupSum, pcg, tts [2]time.Duration
		for pi, p := range probs {
			for vi, v := range []core.Variant{core.VariantFSAI, core.VariantFull} {
				req++
				rootName := "matrix.fsai"
				if v == core.VariantFull {
					rootName = "matrix.fsaie"
				}
				root := tr.Begin(rootName, 0, req)
				t0 := time.Now()
				sstart := tr.now()
				sid := tr.Begin("core.setup", root, req)
				pc, err := core.Compute(p.a, fsaiOptions(v, 1))
				tr.End(sid)
				if err != nil {
					return nil, fmt.Errorf("%s %v setup: %w", p.name, v, err)
				}
				if tr.on() {
					addSetupSpans(tr, sid, req, sstart, pc.Stats)
				}
				t1 := time.Now()
				x := make([]float64, p.a.Rows)
				r := tracedSolve(tr, root, req, p.a, x, p.b, pc, kopt)
				t2 := time.Now()
				cid := tr.Begin("perfbench.check", root, req)
				why := checkSolve(make([]float64, p.a.Rows), p.a, x, p.b, r)
				tr.End(cid)
				tr.End(root)
				if why != "" {
					res.fail("%s %v: %s", p.name, v, why)
					continue
				}
				res.ok()
				if passes < 0 {
					continue
				}
				ops++
				setupSum[vi] += t1.Sub(t0)
				pcg[vi] += t2.Sub(t1)
				tts[vi] += t2.Sub(t0)
				if v == core.VariantFull {
					iters = append(iters, float64(r.Iterations))
					last[pi] = pc
				}
			}
		}
		if passes < 0 {
			continue
		}
		setupS = append(setupS, setupSum[1].Seconds())
		pcgMS = append(pcgMS, ms(pcg[1]))
		ttsS = append(ttsS, tts[1].Seconds())
		passS = append(passS, time.Since(passStart).Seconds())
		ttsRatio = append(ttsRatio, float64(tts[1])/float64(tts[0]))
	}
	res.e2e["heap_live_mb"] = hs.Stop()
	allocKB, pause := rt.since(ops)

	res.e2e["setup_s"] = median(setupS)
	res.e2e["latency_p50_ms"] = median(pcgMS)
	res.e2e["latency_p90_ms"] = quantile(pcgMS, 0.9)
	res.e2e["cold_p50_ms"] = 1000 * median(ttsS)
	res.e2e["goodput_per_s"] = float64(2*len(probs)) / median(passS)
	res.e2e["iterations"] = mean(iters)
	res.note("tts_s %.4f s (FSAIE(full) setup+PCG per pass, median of %d passes)", median(ttsS), len(ttsS))
	res.note("tts_ratio %.4f (FSAIE(full) / FSAI time to solution, median per pass)", median(ttsRatio))
	res.note("latency_p95_ms %.4f ms (PCG per pass)", quantile(pcgMS, 0.95))
	res.note("samples %d passes of %d matrices", len(ttsS), len(probs))
	res.note("working_set %.2f MB largest matrix+vectors (L2 4 MiB/core, L3 300 MiB shared)", wsBytes/(1<<20))

	if c.tr.on() {
		l := newLedger(c.tr.Spans(), "matrix.fsaie")
		setLedgerLayers(res, l)
		var precalc, direct, nnz float64
		var misses, gnnz float64
		cache := cachesim.New(arch.Skylake().L1Sim)
		for pi, pc := range last {
			if pc == nil {
				return nil, fmt.Errorf("%s: no FSAIE(full) factor", probs[pi].name)
			}
			precalc += pc.Stats.PrecalcFlops
			direct += pc.Stats.DirectFlops
			nnz += float64(pc.NNZ())
			gm, gtm := cachesim.TracePrecondition(cache, pattern.FromCSR(pc.G), cachesim.TraceOptions{IncludeStreams: true})
			misses += float64(gm + gtm)
			gnnz += 2 * float64(pc.NNZ())
		}
		k := float64(len(last))
		res.layers["core.setup.precalc_gflop"] = precalc / k / 1e9
		res.layers["core.setup.direct_gflop"] = direct / k / 1e9
		res.layers["core.nnz_g"] = nnz / k
		res.layers["cachesim.miss_per_nnz_g"] = misses / gnnz
		res.layers["krylov.iterations"] = mean(iters)
		res.layers["runtime.alloc_kb_per_op"] = allocKB
		res.layers["runtime.gc_pause_ms"] = pause
		res.layers["workload.working_set_mb"] = wsBytes / (1 << 20)
	}
	return res, nil
}

// largeProblem is one of warm-large's out-of-L2 matrices.
type largeProblem struct {
	name string
	a    *sparse.CSR
	pc   *core.Preconditioner
}

// runWarmLarge: FSAIE(full) factors of two out-of-L2 matrices are built
// once; the run then times repeated two-worker scalar solves with seeded
// right-hand sides, plus k=8 SolveBlock on the same factors.
func runWarmLarge(c *runCtx) (*result, error) {
	const workers, k = 2, 8
	res := newResult()
	rng := rand.New(rand.NewSource(c.seed))
	probs := []*largeProblem{
		{name: "Laplace3D(32,32,32)", a: matgen.Laplace3D(32, 32, 32)},
		{name: "Anisotropic2D(160,160,0.01)", a: matgen.Anisotropic2D(160, 160, 0.01)},
	}
	kopt := krylov.DefaultOptions()
	kopt.Workers = workers

	// Set-up: build both factors setupRounds times after one uncounted
	// round; the first solve after each build gives the cold (set-up +
	// solve) samples.
	var setupS []float64
	var cold [2][]float64
	for round := -1; round < setupRounds; round++ {
		var sum time.Duration
		for i, p := range probs {
			t0 := time.Now()
			pc, err := core.Compute(p.a, fsaiOptions(core.VariantFull, workers))
			if err != nil {
				return nil, fmt.Errorf("%s setup: %w", p.name, err)
			}
			d := time.Since(t0)
			sum += d
			p.pc = pc
			b := rhs(rng, p.a)
			x := make([]float64, p.a.Rows)
			r := krylov.Solve(p.a, x, b, pc, kopt)
			if round >= 0 {
				cold[i] = append(cold[i], ms(time.Since(t0)))
			}
			if why := checkSolve(make([]float64, p.a.Rows), p.a, x, b, r); why != "" {
				res.fail("%s cold solve: %s", p.name, why)
			} else {
				res.ok()
			}
		}
		if round >= 0 {
			setupS = append(setupS, sum.Seconds())
		}
	}
	var wsBytes [2]float64
	for i, p := range probs {
		wsBytes[i] = csrBytes(p.a) + csrBytes(p.pc.G) + csrBytes(p.pc.GT) + 6*8*float64(p.a.Rows)
	}

	// Block phase: one k=8 SolveBlock per matrix. One sampled column per
	// run is re-solved alone and must match its block column bit for bit.
	checkBlock, checkCol := rng.Intn(2), rng.Intn(k)
	var perRHS [2][]float64
	bopt := krylov.BlockOptions{Tol: kopt.Tol, MaxIter: kopt.MaxIter, Workers: workers}
	for n := 0; n < 2; n++ {
		p := probs[n%2]
		nr := p.a.Rows
		B := make([]float64, k*nr)
		for j := 0; j < k; j++ {
			copy(B[j*nr:], rhs(rng, p.a))
		}
		X := make([]float64, k*nr)
		t0 := time.Now()
		br := krylov.SolveBlock(p.a, X, B, k, p.pc, bopt)
		perRHS[n%2] = append(perRHS[n%2], ms(time.Since(t0))/k)
		for j := 0; j < k; j++ {
			if why := checkSolve(make([]float64, nr), p.a, X[j*nr:(j+1)*nr], B[j*nr:(j+1)*nr], br.Columns[j]); why != "" {
				res.fail("%s block column %d: %s", p.name, j, why)
			} else {
				res.ok()
			}
		}
		if n == checkBlock {
			x := make([]float64, nr)
			krylov.Solve(p.a, x, B[checkCol*nr:(checkCol+1)*nr], p.pc, kopt)
			if !bitwiseEqual(x, X[checkCol*nr:(checkCol+1)*nr]) {
				res.fail("%s block column %d differs from the scalar solve", p.name, checkCol)
			} else {
				res.ok()
			}
		}
	}
	// The scalar loop reuses its right-hand side, solution and residual
	// buffers, so the only garbage the GC sees is the solver's own.
	var bufs [2]struct{ b, x, ax []float64 }
	for i, p := range probs {
		n := p.a.Rows
		bufs[i].b, bufs[i].x, bufs[i].ax = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	hs := startHeapSampler()
	rt := readRuntime()
	disp0, inl0 := kernels.PoolDispatches(), kernels.PoolInlineRuns()
	start := time.Now()
	scalarEnd := start.Add(c.dur)
	var lat [2][]float64
	var iters []float64
	var req int64
	for n := 0; n < 2 || time.Now().Before(scalarEnd); n++ {
		p, buf := probs[n%2], &bufs[n%2]
		b, x := buf.b, buf.x
		fillRHS(rng, p.a, b)
		clear(x)
		req++
		root := c.tr.Begin("solve", 0, req)
		t0 := time.Now()
		r := tracedSolve(c.tr, root, req, p.a, x, b, p.pc, kopt)
		d := time.Since(t0)
		cid := c.tr.Begin("perfbench.check", root, req)
		why := checkSolve(buf.ax, p.a, x, b, r)
		c.tr.End(cid)
		c.tr.End(root)
		if why != "" {
			res.fail("%s scalar solve: %s", p.name, why)
			continue
		}
		res.ok()
		lat[n%2] = append(lat[n%2], ms(d))
		iters = append(iters, float64(r.Iterations))
	}
	scalarWall := time.Since(start)
	solves := len(iters)
	disp, inl := kernels.PoolDispatches()-disp0, kernels.PoolInlineRuns()-inl0

	res.e2e["heap_live_mb"] = hs.Stop()
	allocKB, pause := rt.since(solves)

	res.e2e["setup_s"] = median(setupS)
	res.e2e["latency_p50_ms"] = perProblem(lat[:], 0.5)
	res.e2e["latency_p90_ms"] = perProblem(lat[:], 0.9)
	res.e2e["cold_p50_ms"] = perProblem(cold[:], 0.5)
	res.e2e["goodput_per_s"] = float64(solves) / scalarWall.Seconds()
	res.e2e["iterations"] = mean(iters)
	res.note("block_per_rhs_ms %.4f ms (k=%d SolveBlock wall / %d, median per matrix, mean of the two)",
		(median(perRHS[0])+median(perRHS[1]))/2, k, k)
	res.note("latency_p95_ms %.4f ms (scalar solve, per matrix, mean of the two)", perProblem(lat[:], 0.95))
	res.note("samples %d scalar solves, %d+%d block solves", solves, len(perRHS[0]), len(perRHS[1]))
	for i, p := range probs {
		res.note("working_set %s: %.1f MB of A, G, Gᵀ and vectors (L2 4 MiB/core, L3 300 MiB shared)", p.name, wsBytes[i]/(1<<20))
	}

	if c.tr.on() {
		setLedgerLayers(res, newLedger(c.tr.Spans(), "solve"))
		res.layers["krylov.iterations"] = mean(iters)
		res.layers["parallel.dispatches_per_solve"] = float64(disp) / float64(solves)
		res.layers["parallel.inline_runs_per_solve"] = float64(inl) / float64(solves)
		res.layers["runtime.alloc_kb_per_op"] = allocKB
		res.layers["runtime.gc_pause_ms"] = pause
		res.layers["workload.working_set_mb"] = (wsBytes[0] + wsBytes[1]) / 2 / (1 << 20)
		var nnzG float64
		for _, p := range probs {
			nnzG += float64(p.pc.NNZ())
		}
		res.layers["core.nnz_g"] = nnzG / 2
		// The last set-up round's builds: these should stay flat while
		// the solve path changes.
		for _, p := range probs {
			for _, ph := range p.pc.Stats.Phases {
				if name, ok := phaseSpan[ph.Name]; ok {
					res.layers[name+"_ms"] += float64(ph.NS) / 1e6 / float64(len(probs))
				}
			}
			res.layers["core.setup.precalc_gflop"] += p.pc.Stats.PrecalcFlops / 1e9 / float64(len(probs))
			res.layers["core.setup.direct_gflop"] += p.pc.Stats.DirectFlops / 1e9 / float64(len(probs))
		}
		for name, v := range kernelTimes(rng, probs, workers, k) {
			res.layers[name] = v
		}
		setKernelModel(res, probs[0].a, probs[0].pc, k)
		res.layers["parallel.speedup_2w"] = speedup(rng, probs[0], kopt)
	}
	return res, nil
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelTimes times single layer calls directly: Apply and ApplyBlock of
// the factors (on the solver's workers), the sparse layer's own serial
// CSR.MulVec/MulMat with A, and the fused BLAS-1 kernels on a
// kernels.Engine with the solver's workers. Each figure is the median over
// repeated calls, averaged over the problems.
func kernelTimes(rng *rand.Rand, probs []*largeProblem, workers, k int) map[string]float64 {
	const reps = 40
	out := map[string]float64{}
	for _, p := range probs {
		n := p.a.Rows
		eng := kernels.New(n, workers)
		x, y, z, w := rhs(rng, p.a), make([]float64, n), make([]float64, n), make([]float64, n)
		X, Y := make([]float64, k*n), make([]float64, k*n)
		for j := 0; j < k; j++ {
			copy(X[j*n:], rhs(rng, p.a))
		}
		time1 := func(f func()) float64 {
			f() // warm the scratch buffers and partition plans
			var ts []float64
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				f()
				ts = append(ts, float64(time.Since(t0))/1e3)
			}
			return median(ts) / float64(len(probs))
		}
		out["core.apply_us"] += time1(func() { p.pc.Apply(z, x) })
		out["core.apply_block_per_rhs_us"] += time1(func() { p.pc.ApplyBlock(Y, X, k) }) / float64(k)
		out["sparse.spmv_us"] += time1(func() { p.a.MulVec(y, x) })
		out["sparse.spmm_per_rhs_us"] += time1(func() { p.a.MulMat(Y, X, k) }) / float64(k)
		out["kernels.xrupdate_us"] += time1(func() { eng.XRUpdate(1e-3, x, z, w, y) })
		out["kernels.dot_us"] += time1(func() { eng.Dot(x, z) })
	}
	return out
}

// speedup returns the median one-worker solve time over the median
// two-worker time of the same right-hand side and factor.
func speedup(rng *rand.Rand, p *largeProblem, kopt krylov.Options) float64 {
	b := rhs(rng, p.a)
	one := kopt
	one.Workers = 1
	serial := p.pc.CloneForApply(1)
	timeSolve := func(o krylov.Options, m krylov.Preconditioner) float64 {
		var ts []float64
		for i := 0; i < 3; i++ {
			x := make([]float64, p.a.Rows)
			t0 := time.Now()
			krylov.Solve(p.a, x, b, m, o)
			ts = append(ts, float64(time.Since(t0)))
		}
		return median(ts)
	}
	return timeSolve(one, serial) / timeSolve(kopt, p.pc)
}
