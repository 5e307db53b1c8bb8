package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	fsai "repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// A solve job runs one pipeline whether or not it is batched: handleSolve
// builds the job, a runner (runUnbatched, or the batcher for a warm FSAI
// solve) admits it and solves it, and finishJob answers it. The runners
// share the set-up step (factor) and the per-column completion step
// (complete), so a batched job's response, run report and bookkeeping are
// those of an unbatched one plus its batch section.

// job is one solve request from decode to response.
type job struct {
	id         string
	req        *SolveRequest
	rm         *RegisteredMatrix
	ji         JobInfo
	tr         *telemetry.Tracer // the job's own span tree
	tc         trace.Context
	parentSpan string // the client's span id when it sent a traceparent
	root       *telemetry.Span
	log        *slog.Logger
	enqueued   time.Time
	// reqCtx carries the client's propagated deadline (clientDeadline
	// records whether it sent one) and disconnect.
	reqCtx         context.Context
	clientDeadline bool
	// done receives the batch runner's result (batched jobs only).
	done chan jobResult
}

// jobResult is what a runner hands back to finishJob: a response, or the
// error that kept the job from producing one.
type jobResult struct {
	resp *SolveResponse
	err  error
}

// shedError is a job refused under memory pressure; it answers 429 like
// queue saturation, so retrying clients back off the same way.
type shedError struct{ state string }

func (e *shedError) Error() string { return "shed: memory " + e.state }

// budget is the job's in-flight time limit, applied from admission.
func (j *job) budget(def time.Duration) time.Duration {
	if j.req.TimeoutMS > 0 {
		return time.Duration(j.req.TimeoutMS) * time.Millisecond
	}
	return def
}

// markAdmitted records that j got its solve slot: queue wait and state.
func (s *Server) markAdmitted(j *job, at time.Time) {
	j.ji.QueueWaitNS = at.Sub(j.enqueued).Nanoseconds()
	j.ji.State = JobRunning
	s.jobs.put(j.ji)
}

// fillRHS writes req's right-hand side into b: the request's values, or
// all ones when it sent none.
func fillRHS(b []float64, req *SolveRequest) {
	if len(req.RHS) != 0 {
		copy(b, req.RHS)
		return
	}
	for i := range b {
		b[i] = 1
	}
}

// setupOptions is the FSAI set-up configuration of req. ctx supplies the
// job's span tracer (set-up phases become children of the open span) and
// its label context (set-up runs under phase=setup pprof labels).
func (s *Server) setupOptions(ctx context.Context, req *SolveRequest) fsai.Options {
	return fsai.Options{
		Variant:      fsai.VariantFull,
		Filter:       req.Filter,
		LineBytes:    req.LineBytes,
		PatternPower: req.PatternPower,
		ThresholdTau: req.Tau,
		MaxRowNNZ:    512,
		Workers:      s.opt.Workers,
		Tracer:       trace.TracerFromContext(ctx),
		Ctx:          ctx,
	}
}

// factor finds or builds the FSAI-family factor req needs on rm. The cache
// is single-flight, so concurrent jobs share one build. A factor this call
// built is written through to the store — best-effort: a store failure
// costs the next restart a recomputation, never this job — and swept again
// when a concurrent unregister removed the matrix during the build.
func (s *Server) factor(ctx context.Context, log *slog.Logger, rm *RegisteredMatrix, req *SolveRequest) (*CachedPrecond, bool, error) {
	fp := rm.Info.Fingerprint
	key := PrecondKey(fp, req)
	entry, hit, err := s.cache.GetOrBuild(ctx, key, func() (*CachedPrecond, error) {
		t0 := time.Now()
		p, err := buildFSAIFamily(req.Precond, rm.A, s.setupOptions(ctx, req))
		if err != nil {
			return nil, err
		}
		return &CachedPrecond{P: p, SetupNS: time.Since(t0).Nanoseconds()}, nil
	})
	if err != nil || hit {
		return entry, hit, err
	}
	if s.store != nil {
		if serr := s.store.PutFactor(key, fp, entry.P, entry.SetupNS); serr != nil {
			log.Warn("store factor write failed", "matrix", shortFP(fp), "error", serr.Error())
		}
	}
	// Unregistering starts with the registry removal, so if the matrix is
	// still registered here, any delete in flight will sweep our cache and
	// store writes itself; if it is gone, the delete may already have swept
	// — redo the sweep so nothing survives an unregister.
	if _, ok := s.matrices.Get(fp); !ok {
		s.cache.EvictMatrix(fp)
		if s.store != nil {
			_ = s.store.DeleteMatrix(fp)
		}
	}
	return entry, false, nil
}

// column is one solved right-hand side of a job, as complete needs it.
type column struct {
	res krylov.Result
	x   []float64
	// entry is the cached factor the solve used (nil for uncached and
	// resilient solves): it carries the iteration baseline.
	entry *CachedPrecond
	g     *fsai.Preconditioner
	rout  *resilience.Outcome
	rsol  *obs.RooflineSolve
	// setupNS and solveNS are the job's set-up and solve wall times.
	setupNS, solveNS int64
}

// complete fills resp from a solved column and does the per-column
// bookkeeping: the iteration-anomaly check against the factor's baseline,
// the SLO observation and the run report.
func (s *Server) complete(j *job, resp *SolveResponse, c column) {
	fp := j.rm.Info.Fingerprint
	res := c.res
	if c.entry != nil {
		// The first converged solve on a factor defines the fingerprint's
		// baseline; warm solves that drift far above it get flagged — the
		// cache still "works" (hit, zero setup) but no longer
		// preconditions like it used to.
		if resp.Cache == CacheHit && res.Converged {
			if base := c.entry.BaselineIters(); IterationAnomaly(base, res.Iterations) {
				resp.IterAnomaly = true
				j.log.Warn("iteration-count anomaly on warm solve", "matrix", shortFP(fp),
					"baseline_iters", base, "iterations", res.Iterations)
			}
		}
		if res.Converged {
			c.entry.SetBaselineIters(res.Iterations)
		}
	}
	if c.rsol != nil {
		resp.LowBandwidth = c.rsol.LowBandwidth
	}
	resp.Iterations = res.Iterations
	resp.Converged = res.Converged
	resp.Status = res.Status.String()
	resp.RelRes = res.RelResidual
	resp.SetupNS = c.setupNS
	resp.SolveNS = c.solveNS
	resp.TraceID = j.tc.TraceID
	if j.req.ReturnSolution {
		resp.X = c.x
	}

	// SLO accounting happens before the report is written so the report's
	// slo section reflects a window that includes this very solve.
	s.slo.ObserveSolve(fp, resp.Cache == CacheHit, c.setupNS+c.solveNS, j.ji.QueueWaitNS)
	if resp.IterAnomaly {
		s.slo.RecordIterationAnomaly(fp)
	}
	if s.opt.RunsDir != "" {
		resp.Report = s.writeJobReport(j, resp, c.g, c.rout, res, c.rsol)
	}
}

// finishJob is the one handler tail of every solve job, whatever its path
// and outcome. It answers 200 with the response, 429 when the queue is
// saturated or memory pressure sheds the job, 500 when an admitted job
// produced no result, 504 when the client's deadline expired while queued
// and 503 when the client went away; it records the job, observes the job
// latency series of an admitted job, closes the root span, records the
// trace and logs. The returned response (nil unless 200) feeds the
// idempotency index.
func (s *Server) finishJob(w http.ResponseWriter, j *job, resp *SolveResponse, err error) *SolveResponse {
	ji := &j.ji
	if ji.State == JobRunning {
		total := time.Since(j.enqueued).Nanoseconds()
		ji.TotalNS = total
		s.adm.observe(total)
		s.reg.Histogram("service.job.total_ns", telemetry.ExpBuckets(1e6, 2, 24)).Observe(float64(total))
		s.reg.Histogram("service.job.queue_wait_ns", telemetry.ExpBuckets(1e4, 4, 12)).
			Observe(float64(ji.QueueWaitNS))
	}
	ji.FinishedAt = time.Now().UTC().Format(time.RFC3339Nano)
	deadline := j.clientDeadline && errors.Is(j.reqCtx.Err(), context.DeadlineExceeded)

	if err != nil {
		code, body := http.StatusServiceUnavailable, ErrorBody{Error: err.Error(), JobID: j.id, TraceID: j.tc.TraceID}
		var (
			sat  *SaturatedError
			shed *shedError
		)
		state := JobRejected
		switch {
		case ji.State == JobRunning:
			code, state = http.StatusInternalServerError, JobFailed
			s.reg.Counter(`service.jobs{status="setup-error"}`).Inc()
			j.log.Error("job failed", "error", err.Error())
		case errors.As(err, &shed), errors.As(err, &sat):
			retry := s.adm.retryAfter()
			if sat != nil {
				retry = sat.RetryAfter
			} else {
				body.Error = fmt.Sprintf("service: shedding load, memory state %q", shed.state)
			}
			code, body.RetryAfterS = http.StatusTooManyRequests, int(math.Ceil(retry.Seconds()))
			w.Header().Set("Retry-After", fmt.Sprint(body.RetryAfterS))
			j.log.Warn("job rejected", "error", err.Error())
		case deadline:
			// The client's propagated budget ran out while the job was
			// still queue-waiting: the queue spot is given back, and 504 is
			// the deadline-specific "the server did not finish in time".
			code, body.Error = http.StatusGatewayTimeout, "client deadline expired while queued"
			s.reg.Counter("retry.deadline_expired_total").Inc()
			j.log.Warn("client deadline expired while queued")
		default:
			// The client went away while queued; the body is written for
			// the log.
			j.log.Warn("job rejected", "error", err.Error())
		}
		ji.State, ji.Err = state, err.Error()
		s.jobs.put(*ji)
		j.root.SetAttr("outcome", state)
		j.root.End()
		s.recordTrace(j, state)
		writeJSON(w, code, body)
		return nil
	}

	resp.TotalNS = ji.TotalNS
	resp.QueueWaitNS = ji.QueueWaitNS
	ji.State = JobDone
	ji.Cache = resp.Cache
	ji.Status = resp.Status
	ji.Iterations = resp.Iterations
	ji.Converged = resp.Converged
	ji.RelRes = resp.RelRes
	ji.SetupNS = resp.SetupNS
	ji.SolveNS = resp.SolveNS
	logArgs := []any{"status", resp.Status, "cache", resp.Cache, "iterations", resp.Iterations,
		"converged", resp.Converged, "queue_wait_ns", resp.QueueWaitNS,
		"setup_ns", resp.SetupNS, "solve_ns", resp.SolveNS, "total_ns", resp.TotalNS}
	if resp.Batch != nil {
		ji.Batch = resp.Batch.ID
		logArgs = append(logArgs, "batch_id", resp.Batch.ID, "batch_size", resp.Batch.Size)
	}
	s.jobs.put(*ji)
	s.reg.Counter(fmt.Sprintf("service.jobs{status=%q}", resp.Status)).Inc()
	if deadline {
		// The client's budget expired mid-flight; the cancellation already
		// stopped CG (a batched column deflated out of its block), this
		// just attributes it.
		s.reg.Counter("retry.deadline_expired_total").Inc()
		j.log.Warn("client deadline expired in flight", "status", resp.Status)
	}
	j.root.SetAttr("outcome", resp.Status)
	j.root.SetAttr("cache", resp.Cache)
	if resp.Batch != nil {
		j.root.SetAttr("batch_id", resp.Batch.ID)
	}
	j.root.End()
	s.recordTrace(j, resp.Status)
	j.log.Info("job done", logArgs...)
	writeJSON(w, http.StatusOK, resp)
	return resp
}
