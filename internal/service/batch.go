package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/roofline"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The request batcher groups concurrent warm-cache solves on the same
// operator into one block solve. A batch-eligible job holds for up to
// Options.BatchWindow; every job that arrives in that window with the same
// (fingerprint, setup options, tol, max_iter) joins the group, and the
// group executes as a single krylov.SolveBlock over one admission slot —
// one matrix stream serving all columns, which is where the per-RHS speedup
// comes from (see docs/performance.md, "Batched solving").
//
// The grouping changes scheduling, never results: the block solver's
// default decoupled mode makes every column bit-identical to the unbatched
// scalar solve, each job keeps its own trace, idempotency entry, job-log
// record and run report, and a column whose client deadline expires
// deflates out of the block without poisoning the other columns.

type batchGroup struct {
	key     string
	members []*job
	timer   *time.Timer
}

// batcher collects batch-eligible jobs into per-key groups and launches
// each group after the window (or when it reaches max members).
type batcher struct {
	s      *Server
	window time.Duration
	max    int

	mu     sync.Mutex
	groups map[string]*batchGroup
}

func newBatcher(s *Server, window time.Duration, max int) *batcher {
	return &batcher{s: s, window: window, max: max, groups: map[string]*batchGroup{}}
}

// batchKey extends the preconditioner cache key with the solve knobs: two
// jobs may share a cached factor but still need separate solves when their
// tolerances differ.
func batchKey(fingerprint string, req *SolveRequest) string {
	return fmt.Sprintf("%s|tol=%g|maxiter=%d", PrecondKey(fingerprint, req), req.Tol, req.MaxIter)
}

// eligible reports whether req may ride the batch path: a plain FSAI-family
// solve whose factor is already resident (warm). Cold solves would serialize
// the group behind a setup; resilient solves own their recovery sequence;
// HoldMS jobs are admission-control drills and must occupy their own slot.
func (b *batcher) eligible(req *SolveRequest, rm *RegisteredMatrix) bool {
	if req.Resilient || req.HoldMS > 0 || req.SetupOnly {
		return false
	}
	switch req.Precond {
	case "fsai", "fsaie-sp", "fsaie", "adaptive":
	default:
		return false
	}
	return b.s.cache.Contains(PrecondKey(rm.Info.Fingerprint, req))
}

// submit adds m to its group, opening one (and arming the window timer) if
// none is collecting. The group launches when the timer fires or when it
// reaches max members, whichever comes first.
func (b *batcher) submit(key string, m *job) {
	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{key: key}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.launch(key, g) })
	}
	g.members = append(g.members, m)
	full := len(g.members) >= b.max
	b.mu.Unlock()
	if full {
		b.launch(key, g)
	}
}

// launch removes the group from the collecting set and runs it. Guarded so
// the window timer and a size-triggered launch cannot both run the group.
func (b *batcher) launch(key string, g *batchGroup) {
	b.mu.Lock()
	if b.groups[key] != g {
		b.mu.Unlock()
		return
	}
	delete(b.groups, key)
	members := g.members
	b.mu.Unlock()
	g.timer.Stop()
	go b.run(members)
}

// mergedDone returns a context cancelled once every member context is done:
// the batch's admission wait gives up only when no caller is left waiting.
func mergedDone(ctxs []context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(ctxs))
	var mu sync.Mutex
	for _, c := range ctxs {
		go func(c context.Context) {
			select {
			case <-c.Done():
			case <-ctx.Done():
			}
			mu.Lock()
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				cancel()
			}
		}(c)
	}
	return ctx, cancel
}

// wait enrolls j in its batch group and blocks until the group's block
// solve hands back j's result. The window span covers submit-to-result; the
// runner nests the job's batched-solve span (batch id, column) inside it.
// Kernel-level solve spans land on the batch leader's trace.
func (b *batcher) wait(j *job) (*SolveResponse, error) {
	j.done = make(chan jobResult, 1)
	windowSpan := j.tr.StartSpan("batch-window")
	b.submit(batchKey(j.rm.Info.Fingerprint, j.req), j)
	out := <-j.done
	windowSpan.End()
	return out.resp, out.err
}

// run executes one batch group end to end: one admission slot, one block
// solve, per-member completion. It runs on its own goroutine; every
// member's handler goroutine is blocked in wait.
func (b *batcher) run(members []*job) {
	s := b.s
	k := len(members)
	leader := members[0]
	rm, req := leader.rm, leader.req
	launchedAt := time.Now()
	batchID := fmt.Sprintf("batch-%06d", s.seq.Add(1))
	logw := s.log.With("batch_id", batchID, "matrix", shortFP(rm.Info.Fingerprint))

	fail := func(err error) {
		for _, m := range members {
			m.done <- jobResult{err: err}
		}
	}

	reqCtxs := make([]context.Context, k)
	for i, m := range members {
		reqCtxs[i] = m.reqCtx
	}
	merged, cancelMerged := mergedDone(reqCtxs)
	defer cancelMerged()

	// One admission slot for the whole batch — amortization starts at the
	// queue. The wait carries the batch's pprof labels with phase=admission
	// like any job; the leader's ids stand for the group.
	var (
		release func()
		err     error
	)
	prof.Do(merged, func(lctx context.Context) {
		release, err = s.adm.acquire(lctx)
	}, prof.LabelJobID, batchID, prof.LabelTraceID, leader.tc.TraceID,
		prof.LabelFingerprint, shortFP(rm.Info.Fingerprint),
		prof.LabelPhase, prof.PhaseAdmission)
	if err != nil {
		logw.Warn("batch admission failed", "jobs", k, "error", err.Error())
		fail(err)
		return
	}
	defer release()
	admittedAt := time.Now()
	for _, m := range members {
		s.markAdmitted(m, admittedAt)
	}

	// Per-column contexts: each column's in-flight budget is
	// min(client deadline, its own timeout), applied from admission exactly
	// like the unbatched path. An expired column deflates out of the block;
	// the batch context (all-members-merged) only stops the solve when no
	// caller is left.
	colCtx := make([]context.Context, k)
	for i, m := range members {
		ctx, cancel := context.WithTimeout(m.reqCtx, m.budget(s.opt.DefaultTimeout))
		defer cancel()
		colCtx[i] = ctx
	}
	// Kernel-level spans of the block solve land on the leader's trace; every
	// member gets its own batched-solve span referencing the batch id.
	batchCtx := trace.NewContext(merged, leader.tc, leader.tr)

	spans := make([]*telemetry.Span, k)
	for i, m := range members {
		sp := m.tr.StartSpan("batched-solve")
		sp.SetAttr("batch_id", batchID)
		sp.SetAttr("batch_size", fmt.Sprint(k))
		sp.SetAttr("column", fmt.Sprint(i))
		spans[i] = sp
	}

	// The factor should be warm (eligibility checked residency), but the
	// entry may have been evicted while the window was open — factor
	// rebuilds it single-flight, like the unbatched path.
	entry, hit, err := s.factor(batchCtx, logw, rm, req)
	if err != nil {
		for _, sp := range spans {
			sp.SetAttr("outcome", "setup-error")
			sp.End()
		}
		logw.Error("batch preconditioner failed", "error", err.Error())
		fail(fmt.Errorf("preconditioner: %v", err))
		return
	}
	cacheOutcome := CacheHit
	setupNS := int64(0)
	if !hit {
		cacheOutcome = CacheMiss
		setupNS = entry.SetupNS
	}

	// Assemble the column-major RHS block.
	a := rm.A
	n := a.Rows
	bblk := make([]float64, n*k)
	for i, m := range members {
		fillRHS(bblk[i*n:(i+1)*n], m.req)
	}
	xblk := make([]float64, n*k)

	s.watcher.Begin(fmt.Sprintf("%s/%s[k=%d]", rm.label(), req.Precond, k), req.Tol, req.MaxIter)
	ko := krylov.BlockOptions{
		Tol:            req.Tol,
		MaxIter:        req.MaxIter,
		Workers:        s.opt.Workers,
		CollectTiming:  true,
		Metrics:        s.reg,
		Ctx:            batchCtx,
		ColumnCtx:      colCtx,
		Progress:       s.watcher.Progress,
		ProgressDetail: s.watcher.ProgressDetail,
	}
	m := entry.P.CloneForApply(s.opt.Workers)
	t0 := time.Now()
	br := krylov.SolveBlock(a, xblk, bblk, k, m, ko)
	solveNS := time.Since(t0).Nanoseconds()
	s.watcher.End(batchWatcherResult(br))

	s.reg.Counter("batch.batches_total").Inc()
	s.reg.Counter("batch.jobs_total").Add(int64(k))
	s.reg.Histogram("batch.size", telemetry.ExpBuckets(1, 2, 6)).Observe(float64(k))

	// Per-batch roofline placement: the spmm kernel's AI is the batch's
	// achieved arithmetic intensity (matrix stream charged once per block
	// sweep, vector traffic per column-iteration).
	var (
		rsol       *obs.RooflineSolve
		achievedAI float64
	)
	if t := br.Timing; br.Iterations > 0 && t != (krylov.Timing{}) {
		var colIters int64
		for _, c := range br.Columns {
			colIters += int64(c.Iterations)
		}
		est := roofline.BlockSolveEstimate(a, entry.P.G, br.Iterations, colIters,
			t.SpMV.Nanoseconds(), t.Precond.Nanoseconds(), t.BLAS1.Nanoseconds(),
			s.roofline.Machine())
		for _, e := range est {
			if e.Kernel == roofline.KernelSpMM {
				achievedAI = e.AI
			}
		}
		if len(est) > 0 {
			rs := s.roofline.Observe(batchID, rm.Info.Fingerprint, br.Iterations, est)
			rsol = &rs
		}
		s.reg.Gauge("batch.achieved_ai").Set(achievedAI)
	}
	logw.Info("batch solved", "jobs", k, "iterations", br.Iterations,
		"all_converged", br.AllConverged, "cache", cacheOutcome,
		"solve_ns", solveNS, "per_rhs_ns", solveNS/int64(k), "achieved_ai", achievedAI)

	for i, mem := range members {
		resp := &SolveResponse{
			JobID:   mem.id,
			Matrix:  rm.Info.Fingerprint,
			Precond: req.Precond,
			Cache:   cacheOutcome,
			Batch: &BatchInfo{
				ID:           batchID,
				Size:         k,
				Column:       i,
				WindowWaitNS: launchedAt.Sub(mem.enqueued).Nanoseconds(),
				SolveWallNS:  solveNS,
				PerRHSNS:     solveNS / int64(k),
				AchievedAI:   achievedAI,
			},
		}
		s.reg.Histogram("batch.window_wait_ns", telemetry.ExpBuckets(1e5, 4, 10)).
			Observe(float64(resp.Batch.WindowWaitNS))
		s.complete(mem, resp, column{
			res: br.Columns[i], x: xblk[i*n : (i+1)*n : (i+1)*n],
			entry: entry, g: entry.P, rsol: rsol,
			setupNS: setupNS, solveNS: solveNS,
		})
		spans[i].SetAttr("outcome", resp.Status)
		spans[i].SetAttr("cache", resp.Cache)
		spans[i].End()
		mem.done <- jobResult{resp: resp}
	}
}

// batchWatcherResult condenses a block result into the single-solve shape
// the live watcher displays: the block's sweep count, converged only when
// every column converged, status of the worst column.
func batchWatcherResult(br krylov.BlockResult) krylov.Result {
	out := krylov.Result{Iterations: br.Iterations, Converged: br.AllConverged}
	out.Status = krylov.StatusConverged
	for _, c := range br.Columns {
		if !c.Converged {
			out.Status = c.Status
		}
		if c.RelResidual > out.RelResidual {
			out.RelResidual = c.RelResidual
		}
	}
	return out
}
