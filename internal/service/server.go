package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	fsai "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxUploadBytes bounds matrix uploads and solve request bodies.
const maxUploadBytes = 64 << 20

// Options configures a service Server. The zero value is usable: every
// capacity gets a production-shaped default.
type Options struct {
	// Metrics, when non-nil, receives the service.* series and backs the
	// mounted /metrics endpoint.
	Metrics *telemetry.Registry
	// RunsDir, when set, receives one run report per finished job
	// (<jobid>.json) and is served under /runs.
	RunsDir string

	// MatrixCap bounds the registry (default 128 matrices).
	MatrixCap int
	// CacheEntries bounds the preconditioner LRU (default 16 factors).
	CacheEntries int
	// MaxInflight bounds concurrently running jobs (default 2: the solver
	// kernels share one internal/parallel pool — the first job gets the
	// pooled workers, a second overlaps usefully inline, more would only
	// oversubscribe).
	MaxInflight int
	// QueueCap bounds jobs waiting for a slot (default 16; negative: no
	// waiting at all); beyond it the server answers 429 with Retry-After.
	QueueCap int
	// DefaultTimeout is the per-job deadline when the request does not set
	// one (default 60s).
	DefaultTimeout time.Duration
	// JobHistory bounds the in-memory job log (default 128).
	JobHistory int
	// Workers is the per-solve kernel parallelism (<=0: all CPUs).
	Workers int
	// Heartbeat is the SSE keep-alive of the mounted obs server.
	Heartbeat time.Duration

	// Logger receives the daemon's structured job-lifecycle records (every
	// line carries job_id and trace_id). Nil: records are discarded, which
	// keeps the package quiet as a library; cmd/fsaid passes a real logger.
	Logger *slog.Logger
	// TraceHistory bounds the in-memory ring of finished request traces
	// served on /traces (default 256). The JSONL export (traces.jsonl under
	// RunsDir, when set) is unbounded.
	TraceHistory int
	// SLO configures the mounted SLO monitor's latency objectives; zero
	// fields get defaults (see obs.SLOObjectives).
	SLO obs.SLOObjectives

	// Machine names the arch model the live roofline estimator prices
	// kernels against ("Skylake", "POWER9", "A64FX"; default Skylake —
	// the paper's primary evaluation node). Unknown names fall back to
	// Skylake with a logged warning rather than failing startup.
	Machine string

	// Store, when non-nil, is the durable persistence layer (fsaid
	// -data-dir): registered matrices and computed factors are written
	// through to it, deletions and evictions remove the disk entries, and
	// New rehydrates the registry and preconditioner cache from its
	// recovered entries — warm solves survive restarts. The server takes
	// ownership (Close closes it).
	Store *store.Store

	// MemSoftLimitBytes is the soft heap watermark: above it the daemon
	// degrades (sheds cold solves with 429, evicts cache entries) instead
	// of growing toward an OOM kill. 0 disables degradation.
	MemSoftLimitBytes uint64
	// MemProbe overrides the heap measurement (tests). Nil: live heap via
	// runtime.ReadMemStats.
	MemProbe func() uint64

	// BatchWindow, when positive, enables the request batcher: a warm-cache
	// FSAI-family solve holds for up to this long so concurrent requests on
	// the same (fingerprint, setup options, tol, max_iter) group into one
	// block solve — one admission slot, one matrix stream for all columns.
	// 0 (the default) disables batching; every job solves alone.
	BatchWindow time.Duration
	// BatchMax bounds the block width: a group launches immediately when it
	// reaches this many jobs (default 8 — past that the per-column vector
	// working set outgrows the cache amortization).
	BatchMax int

	// IdempotencyEntries bounds the completed-response idempotency index
	// (default 256).
	IdempotencyEntries int
	// Profiling configures the continuous-profiling sampler served at
	// /profiles; zero fields get defaults (10s window every minute, 32
	// retained windows — see prof.Options). The sampler runs only while
	// the server is Started, so handler-only embeddings stay quiet.
	Profiling prof.Options
}

func (o *Options) setDefaults() {
	if o.MatrixCap <= 0 {
		o.MatrixCap = 128
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 16
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2
	}
	switch {
	case o.QueueCap == 0:
		o.QueueCap = 16
	case o.QueueCap < 0:
		o.QueueCap = -1 // newAdmission clamps to an empty queue
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.JobHistory <= 0 {
		o.JobHistory = 128
	}
	if o.TraceHistory <= 0 {
		o.TraceHistory = 256
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 8
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Server is the solve daemon: matrix registry + preconditioner cache +
// admission-controlled job execution, with the observability endpoints
// (internal/obs) mounted on the same handler.
type Server struct {
	opt      Options
	reg      *telemetry.Registry
	log      *slog.Logger
	matrices *MatrixRegistry
	cache    *PrecondCache
	adm      *admission
	jobs     *jobLog
	watcher  *obs.SolveWatcher
	obsSrv   *obs.Server
	traces   *trace.Recorder
	slo      *obs.SLOMonitor
	profiler *prof.Sampler
	roofline *obs.RooflineMonitor
	store    *store.Store
	idem     *idemIndex
	degrade  *degrader
	batch    *batcher
	mux      *http.ServeMux
	seq      atomic.Int64

	mu sync.Mutex
	ln net.Listener
	hs *http.Server
}

// New builds a Server with all endpoints registered.
func New(opt Options) *Server {
	opt.setDefaults()
	reg := opt.Metrics
	traceJSONL := ""
	if opt.RunsDir != "" {
		traceJSONL = filepath.Join(opt.RunsDir, "traces.jsonl")
	}
	s := &Server{
		opt:      opt,
		reg:      reg,
		log:      opt.Logger,
		matrices: NewMatrixRegistry(opt.MatrixCap),
		cache:    NewPrecondCache(opt.CacheEntries, reg),
		adm:      newAdmission(opt.MaxInflight, opt.QueueCap, reg),
		jobs:     newJobLog(opt.JobHistory),
		watcher:  obs.NewSolveWatcher(),
		traces:   trace.NewRecorder(opt.TraceHistory, traceJSONL, reg),
		slo:      obs.NewSLOMonitor(opt.SLO, reg),
		mux:      http.NewServeMux(),
	}
	machine := arch.Skylake()
	if opt.Machine != "" {
		m, ok := arch.ByName(opt.Machine)
		if !ok {
			s.log.Warn("unknown machine model, using Skylake", "machine", opt.Machine)
			m = arch.Skylake()
		}
		machine = m
	}
	s.roofline = obs.NewRooflineMonitor(machine, reg)
	po := opt.Profiling
	po.Registry = reg
	// Created here so /profiles is wired for handler-only embeddings (and
	// tests), but started only in Start and stopped in Shutdown/Close: a
	// Server that is never Started spawns no goroutines.
	s.profiler = prof.NewSampler(po)
	s.obsSrv = obs.NewServer(obs.Options{
		Registry:  reg,
		Watcher:   s.watcher,
		RunsDir:   opt.RunsDir,
		Heartbeat: opt.Heartbeat,
		Traces:    s.traces,
		SLO:       s.slo,
		Profiles:  s.profiler,
		Roofline:  s.roofline,
	})
	reg.SetHelp("service_matrices", "matrices currently registered")
	reg.SetHelp("service_jobs", "finished solve jobs by status")
	reg.SetHelp("service_job_total_ns", "job wall time admission-to-response")
	reg.SetHelp("service_job_queue_wait_ns", "job time spent waiting for a slot")
	reg.SetHelp("retry_replays_total", "solve responses replayed from the idempotency index (duplicate of a completed request)")
	reg.SetHelp("retry_coalesced_total", "duplicate solve requests that waited for an in-flight execution with the same idempotency key")
	reg.SetHelp("retry_deadline_expired_total", "solve jobs cancelled because the client's propagated deadline expired (504 while queued, cancelled in flight)")
	// Touch the zero counters so the retry_* families render on /metrics
	// from the first scrape.
	reg.Counter("retry.replays_total")
	reg.Counter("retry.coalesced_total")
	reg.Counter("retry.deadline_expired_total")

	if opt.BatchWindow > 0 {
		s.batch = newBatcher(s, opt.BatchWindow, opt.BatchMax)
	}
	reg.SetHelp("batch_batches_total", "block solves executed by the request batcher (one admission slot each)")
	reg.SetHelp("batch_jobs_total", "solve jobs executed as columns of a batched block solve")
	reg.SetHelp("batch_size", "jobs per executed batch (block width)")
	reg.SetHelp("batch_window_wait_ns", "time jobs spent in the open batch window before launch")
	reg.SetHelp("batch_achieved_ai", "spmm arithmetic intensity of the last executed batch (flop/byte)")
	// Touch the zero counters so the batch_* families render on /metrics
	// from the first scrape (the smoke script asserts their presence).
	reg.Counter("batch.batches_total")
	reg.Counter("batch.jobs_total")

	s.idem = newIdemIndex(opt.IdempotencyEntries, reg)
	s.degrade = newDegrader(opt.MemSoftLimitBytes, opt.MemProbe, s.cache, reg, s.log, s.obsSrv)
	if opt.Store != nil {
		s.store = opt.Store
		s.rehydrate()
		// From here on, every cache eviction (LRU overflow, DELETE,
		// memory-pressure shedding) also removes the disk entry, so the
		// store never serves a factor the cache decided to drop.
		s.cache.SetEvictHook(func(keys ...string) {
			for _, key := range keys {
				if err := s.store.DeleteFactor(key); err != nil {
					s.log.Warn("store factor delete failed", "error", err.Error())
				}
			}
		})
	}

	s.mux.Handle("/", s.obsSrv.Handler())
	s.mux.HandleFunc("/api/v1/matrices", s.handleMatrices)
	s.mux.HandleFunc("/api/v1/matrices/", s.handleMatrix)
	s.mux.HandleFunc("/api/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/api/v1/stats", s.handleStats)
	return s
}

// Handler returns the full daemon handler (API + observability endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Obs exposes the mounted observability server (health overrides, tests).
func (s *Server) Obs() *obs.Server { return s.obsSrv }

// Traces exposes the request-trace recorder (tests, embedding).
func (s *Server) Traces() *trace.Recorder { return s.traces }

// SLO exposes the mounted SLO monitor (tests, embedding).
func (s *Server) SLO() *obs.SLOMonitor { return s.slo }

// Prof exposes the continuous-profiling sampler (tests, embedding). It is
// running only between Start and Shutdown/Close; embedders that use only
// Handler may Start/Stop it themselves.
func (s *Server) Prof() *prof.Sampler { return s.profiler }

// Roofline exposes the live roofline monitor (tests, embedding).
func (s *Server) Roofline() *obs.RooflineMonitor { return s.roofline }

// Store exposes the durable store (nil without one).
func (s *Server) Store() *store.Store { return s.store }

// rehydrate replays the store's recovered entries into the registry and
// the preconditioner cache: the crash-recovery moment the whole layer
// exists for. Every recovered entry was checksum-verified at store.Open;
// a factor entry only rehydrates when its matrix landed in the registry,
// and the reconstructed preconditioner is bit-identical to the one
// computed before the restart.
func (s *Server) rehydrate() {
	matrices, factors := s.store.DrainRecovered()
	nm := 0
	for _, rm := range matrices {
		if _, err := s.matrices.Register(rm.A, rm.Name); err != nil {
			s.log.Warn("recovered matrix not registered", "name", rm.Name, "error", err.Error())
			continue
		}
		nm++
	}
	s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
	nf := 0
	for _, f := range factors {
		if _, ok := s.matrices.Get(f.Fingerprint); !ok {
			continue
		}
		p := fsai.FromFactors(f.G, f.GT, f.Base, f.Final, f.Stats, s.opt.Workers)
		s.cache.Put(f.Key, &CachedPrecond{P: p, SetupNS: f.SetupNS})
		nf++
	}
	if nm > 0 || nf > 0 {
		s.log.Info("state rehydrated from store",
			"dir", s.store.Dir(), "matrices", nm, "factors", nf)
	}
}

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.ln, s.hs = ln, hs
	s.mu.Unlock()
	// The bound address names this process in distributed traces: one
	// routed request's trace id resolves on both the router ("router") and
	// the shard that executed (this address).
	s.traces.SetNode(ln.Addr().String())
	s.profiler.Start()
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the daemon: the listener closes, streaming
// observability handlers are told to end, and in-flight solve jobs drain
// (or ctx expires). Queued jobs that have not been admitted yet fail with
// their connection.
func (s *Server) Shutdown(ctx context.Context) error {
	// End the SSE streams first — they would otherwise hold the drain open
	// until their clients disconnected.
	s.profiler.Stop()
	obsErr := s.obsSrv.Shutdown(ctx)
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			s.closeStore()
			return err
		}
	}
	s.closeStore()
	return obsErr
}

// Close abruptly stops a Started server.
func (s *Server) Close() error {
	s.profiler.Stop()
	_ = s.obsSrv.Shutdown(context.Background())
	s.mu.Lock()
	hs := s.hs
	s.hs, s.ln = nil, nil
	s.mu.Unlock()
	var err error
	if hs != nil {
		err = hs.Close()
	}
	s.closeStore()
	return err
}

// closeStore releases the store's manifest log handle once all jobs are
// done writing through.
func (s *Server) closeStore() {
	if s.store != nil {
		_ = s.store.Close()
	}
}

// normalize fills the request defaults in place and validates the knobs it
// can check without the matrix.
func normalizeSolveRequest(req *SolveRequest) error {
	if req.Matrix == "" {
		return errors.New("missing \"matrix\"")
	}
	if req.Precond == "" {
		req.Precond = "fsaie"
	}
	switch req.Precond {
	case "none", "jacobi", "fsai", "fsaie-sp", "fsaie", "adaptive":
	default:
		return fmt.Errorf("unknown preconditioner %q", req.Precond)
	}
	if req.Resilient && resilience.Chain(req.Precond) == nil {
		return fmt.Errorf("resilient solves need a recovery rung, not %q", req.Precond)
	}
	if req.SetupOnly {
		switch {
		case req.Resilient:
			return errors.New("setup_only is incompatible with resilient (the recovery chain owns setup)")
		case req.Precond == "none" || req.Precond == "jacobi":
			return fmt.Errorf("setup_only needs a cacheable FSAI-family preconditioner, not %q", req.Precond)
		}
	}
	if req.Filter == 0 {
		req.Filter = 0.01
	} else if req.Filter < 0 {
		req.Filter = 0 // explicit "no filtering"
	}
	if req.LineBytes <= 0 {
		req.LineBytes = 64
	}
	if req.PatternPower <= 0 {
		req.PatternPower = 1
	}
	if req.Tol <= 0 {
		req.Tol = 1e-8
	}
	if req.MaxIter <= 0 {
		req.MaxIter = 10000
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// validateOperator applies the same SPD-shaped gate as cmd/fsaisolve.
func validateOperator(a *sparse.CSR) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("matrix is %dx%d, need square", a.Rows, a.Cols)
	}
	if a.Rows == 0 {
		return errors.New("matrix is empty")
	}
	if !a.IsSymmetric(1e-10 * a.MaxNorm()) {
		return errors.New("matrix is not symmetric; PCG requires SPD input")
	}
	return nil
}

func (s *Server) handleMatrices(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.matrices.List())
	case http.MethodPost:
		s.registerMatrix(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (s *Server) registerMatrix(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var a *sparse.CSR
	name := r.URL.Query().Get("name")
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		var req RegisterRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad register request: %v", err)
			return
		}
		spec, ok := matgen.ByName(req.Matgen)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown matgen spec %q", req.Matgen)
			return
		}
		a = spec.Generate()
		if req.Name != "" {
			name = req.Name
		} else if name == "" {
			name = req.Matgen
		}
	} else {
		var err error
		a, err = mmio.Read(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad MatrixMarket upload: %v", err)
			return
		}
	}
	if err := validateOperator(a); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.matrices.Register(a, name)
	switch {
	case errors.Is(err, ErrRegistryFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
	if s.store != nil {
		// Write-through is best-effort: a store error costs durability, not
		// the registration (the store counts it in store_errors_total).
		if serr := s.store.PutMatrix(a, info.Name); serr != nil {
			s.log.Warn("store matrix write failed",
				"fingerprint", shortFP(info.Fingerprint), "error", serr.Error())
		}
	}
	code := http.StatusOK
	if info.Created {
		code = http.StatusCreated
	}
	writeJSON(w, code, info)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	ref := strings.TrimPrefix(r.URL.Path, "/api/v1/matrices/")
	if ref == "" {
		writeError(w, http.StatusNotFound, "missing matrix reference")
		return
	}
	switch r.Method {
	case http.MethodGet:
		rm, ok := s.matrices.Get(ref)
		if !ok {
			writeError(w, http.StatusNotFound, "matrix %q not registered", ref)
			return
		}
		writeJSON(w, http.StatusOK, rm.Info)
	case http.MethodDelete:
		fp, ok := s.matrices.Remove(ref)
		if !ok {
			writeError(w, http.StatusNotFound, "matrix %q not registered", ref)
			return
		}
		// Eviction first: the cache's evict hook deletes the factor disk
		// entries, then the matrix entry goes. After this, neither memory
		// nor disk can resurrect the operator.
		s.cache.EvictMatrix(fp)
		if s.store != nil {
			if serr := s.store.DeleteMatrix(fp); serr != nil {
				s.log.Warn("store matrix delete failed",
					"fingerprint", shortFP(fp), "error", serr.Error())
			}
		}
		s.reg.Gauge("service.matrices").Set(float64(s.matrices.Len()))
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	ji, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, ji)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Matrices: s.matrices.Len(),
		Cache:    s.cache.Stats(),
		Queue:    s.adm.stats(),
		Degraded: s.degrade.stateName(),
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &StoreStats{
			Matrices: ss.Matrices,
			Factors:  ss.Factors,
			Bytes:    ss.Bytes,
			Corrupt:  ss.Corrupt,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad solve request: %v", err)
		return
	}
	if err := normalizeSolveRequest(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rm, ok := s.matrices.Get(req.Matrix)
	if !ok {
		writeError(w, http.StatusNotFound, "matrix %q not registered (POST /api/v1/matrices first)", req.Matrix)
		return
	}
	if len(req.RHS) != 0 && len(req.RHS) != rm.A.Rows {
		writeError(w, http.StatusBadRequest, "rhs has %d values, matrix has %d rows", len(req.RHS), rm.A.Rows)
		return
	}

	// Idempotency: a duplicate of a completed request replays its stored
	// response; a duplicate of an in-flight one waits for the original
	// execution. Either way the solve runs at most once server-side. The
	// owner registers completion via deferred finish below — failure paths
	// abort the claim so transient errors stay retryable.
	var idemEnt *idemEntry
	var finalResp *SolveResponse
	if key := r.Header.Get(HeaderIdempotencyKey); key != "" {
		ent, owner := s.idem.claim(key)
		if !owner {
			s.replayIdempotent(w, r, ent)
			return
		}
		idemEnt = ent
		defer func() {
			if finalResp != nil {
				s.idem.complete(idemEnt, finalResp)
			} else {
				s.idem.abort(idemEnt)
			}
		}()
	}

	// Deadline propagation: the client's remaining budget travels as
	// relative milliseconds and bounds the job from THIS point — queue wait
	// included. A job whose caller gave up must stop occupying the queue
	// and must not start (or keep running) CG.
	reqCtx := r.Context()
	clientDeadline := false
	if h := r.Header.Get(HeaderDeadlineMS); h != "" {
		if ms, perr := strconv.ParseInt(h, 10, 64); perr == nil && ms > 0 {
			var cancel context.CancelFunc
			reqCtx, cancel = context.WithTimeout(reqCtx, time.Duration(ms)*time.Millisecond)
			defer cancel()
			clientDeadline = true
		} else {
			writeError(w, http.StatusBadRequest, "bad %s header %q", HeaderDeadlineMS, h)
			return
		}
	}

	id := fmt.Sprintf("j-%06d", s.seq.Add(1))

	// Establish the job's trace context: continue the client's trace when it
	// sent a well-formed traceparent (our root span becomes a child of its
	// span), otherwise originate a fresh trace. A malformed header is counted
	// and logged but never fails the job — tracing must not break solving.
	tc, parentSpan := trace.New(), ""
	if h := r.Header.Get("traceparent"); h != "" {
		if inbound, perr := trace.ParseTraceparent(h); perr == nil {
			tc, parentSpan = inbound.Child(), inbound.SpanID
		} else {
			s.traces.MalformedHeader()
			s.log.Warn("ignoring malformed traceparent header",
				"job_id", id, "error", perr.Error())
		}
	}
	w.Header().Set("traceparent", tc.Traceparent())

	// One tracer per job: span trees of concurrent jobs must never mix, and
	// the stack-based tracer nests correctly only on its own goroutine.
	tr := telemetry.NewTracer(nil)
	root := tr.StartSpan("solve-request")
	root.SetAttr("job_id", id)
	root.SetAttr("matrix", rm.Info.Fingerprint)
	root.SetAttr("precond", req.Precond)

	enqueued := time.Now()
	j := &job{
		id: id, req: &req, rm: rm, tr: tr, tc: tc, parentSpan: parentSpan, root: root,
		log:      s.log.With("job_id", id, "trace_id", tc.TraceID),
		enqueued: enqueued, reqCtx: reqCtx, clientDeadline: clientDeadline,
		ji: JobInfo{
			ID:         id,
			TraceID:    tc.TraceID,
			Matrix:     rm.Info.Fingerprint,
			Precond:    req.Precond,
			State:      JobQueued,
			EnqueuedAt: enqueued.UTC().Format(time.RFC3339Nano),
		},
	}
	s.jobs.put(j.ji)
	j.log.Info("job enqueued",
		"matrix", shortFP(rm.Info.Fingerprint), "precond", req.Precond)

	// Memory-watermark degradation gate: under pressure only solves that
	// skip the allocation-heavy setup phase (warm cache hits, none/jacobi)
	// are admitted; under critical everything sheds.
	if state, shed := s.degrade.admit(s.solveIsWarm(&req, rm)); shed {
		s.finishJob(w, j, nil, &shedError{state: degradeName(state)})
		return
	}

	// Batched path: a warm-cache FSAI solve may group with concurrent
	// requests on the same (fingerprint, setup options, tol, max_iter) into
	// one block solve over a single admission slot. Results are bit-identical
	// to the unbatched path; only scheduling changes.
	var (
		resp *SolveResponse
		err  error
	)
	if s.batch != nil && s.batch.eligible(&req, rm) {
		resp, err = s.batch.wait(j)
	} else {
		resp, err = s.runUnbatched(j)
	}
	finalResp = s.finishJob(w, j, resp, err)
}

// runUnbatched admits j into a solve slot of its own and runs it.
func (s *Server) runUnbatched(j *job) (*SolveResponse, error) {
	// The admission wait runs under the job's pprof labels with
	// phase=admission, so a captured CPU window shows queueing as its own
	// attributed slice, distinct from setup and CG time.
	fp := shortFP(j.rm.Info.Fingerprint)
	admSpan := j.tr.StartSpan("admission-wait")
	var (
		release func()
		err     error
	)
	prof.Do(j.reqCtx, func(lctx context.Context) {
		release, err = s.adm.acquire(lctx)
	}, prof.LabelJobID, j.id, prof.LabelTraceID, j.tc.TraceID,
		prof.LabelFingerprint, fp, prof.LabelPhase, prof.PhaseAdmission)
	admSpan.End()
	if err != nil {
		return nil, err
	}
	defer release()
	s.markAdmitted(j, time.Now())

	// reqCtx already carries the client's propagated deadline (when sent),
	// so the effective in-flight budget is min(client deadline, timeout):
	// whichever fires first cancels queue-era CG via krylov's Ctx path.
	ctx, cancel := context.WithTimeout(j.reqCtx, j.budget(s.opt.DefaultTimeout))
	defer cancel()
	// Everything below the handler reads the identifiers and the span
	// tracer from the context — no new parameters through cache/krylov.
	ctx = trace.NewContext(ctx, j.tc, j.tr)

	if j.req.HoldMS > 0 {
		// Admission-control drill: occupy the slot without burning CPU.
		holdSpan := j.tr.StartSpan("hold")
		hold := time.NewTimer(time.Duration(j.req.HoldMS) * time.Millisecond)
		select {
		case <-hold.C:
		case <-ctx.Done():
			hold.Stop()
		}
		holdSpan.End()
	}

	// The whole job body carries job_id/trace_id/fingerprint pprof labels;
	// setup and CG add their phase labels underneath (internal/core,
	// internal/krylov), and the kernel pool workers adopt them per dispatch.
	var resp *SolveResponse
	prof.WithJobLabels(ctx, j.id, j.tc.TraceID, fp, func(lctx context.Context) {
		resp, err = s.runJob(lctx, j)
	})
	return resp, err
}

// solveIsWarm reports whether req would skip the allocation-heavy setup
// phase: an FSAI-family factor already resident in the cache, or a
// preconditioner too cheap to matter (none/jacobi). Resilient solves bypass
// the cache and always count as cold.
func (s *Server) solveIsWarm(req *SolveRequest, rm *RegisteredMatrix) bool {
	if req.Resilient {
		return false
	}
	if req.Precond == "none" || req.Precond == "jacobi" {
		return true
	}
	return s.cache.Contains(PrecondKey(rm.Info.Fingerprint, req))
}

// replayIdempotent serves a request whose idempotency key another request
// owns or owned: wait for the original execution (bounded by this request's
// context) and replay its stored response. A nil stored response means the
// original attempt failed without a result — answer 503 so the client's
// retry loop tries again with the key now unclaimed.
func (s *Server) replayIdempotent(w http.ResponseWriter, r *http.Request, ent *idemEntry) {
	completed := false
	select {
	case <-ent.done:
		completed = true
	default:
	}
	resp, err := s.idem.await(r.Context(), ent)
	switch {
	case err != nil:
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "gave up waiting for the original request with this idempotency key"})
	case resp == nil:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error: "original request with this idempotency key failed; retry"})
	default:
		if completed {
			s.reg.Counter("retry.replays_total").Inc()
		} else {
			s.reg.Counter("retry.coalesced_total").Inc()
		}
		s.log.Info("idempotent replay", "job_id", resp.JobID, "trace_id", resp.TraceID,
			"coalesced", !completed)
		w.Header().Set(HeaderIdempotentReplay, "1")
		writeJSON(w, http.StatusOK, replayCopy(resp))
	}
}

// recordTrace snapshots the job's finished span tree into the recorder.
// Called after root.End(), on every outcome path — rejected and failed jobs
// leave traces too, so a client holding only an error body's trace id can
// still see where the request spent its time.
func (s *Server) recordTrace(j *job, status string) {
	report := j.tr.Report()
	if len(report) == 0 {
		return
	}
	s.traces.Record(&trace.Trace{
		TraceID:      j.tc.TraceID,
		SpanID:       j.tc.SpanID,
		ParentSpanID: j.parentSpan,
		JobID:        j.id,
		Fingerprint:  j.ji.Matrix,
		Name:         j.ji.Precond,
		Status:       status,
		Root:         report[0],
	})
}

// runJob executes one admitted solve job: preconditioner via cache (or the
// resilience chain), PCG, completion. The returned error means the job
// could not produce a result at all (setup failure); a non-converged solve
// is a normal response with Converged=false.
func (s *Server) runJob(ctx context.Context, j *job) (*SolveResponse, error) {
	req, rm := j.req, j.rm
	resp := &SolveResponse{JobID: j.id, Matrix: rm.Info.Fingerprint, Precond: req.Precond}
	if req.SetupOnly {
		// Cache-warming primitive (the cluster router's replication path):
		// build or find the factor, write it through to the store, run no
		// CG. The watcher is never engaged — a warm-up is not a solve and
		// must not flip /healthz or the SLO series.
		return s.runSetupOnly(ctx, j, resp)
	}
	a := rm.A
	b := make([]float64, a.Rows)
	fillRHS(b, req)
	c := column{x: make([]float64, a.Rows)}
	ko := krylov.Options{
		Tol:           req.Tol,
		MaxIter:       req.MaxIter,
		Workers:       s.opt.Workers,
		CollectTiming: true,
		Metrics:       s.reg,
		Ctx:           ctx,
	}
	s.watcher.Begin(fmt.Sprintf("%s/%s", rm.label(), req.Precond), req.Tol, req.MaxIter)
	ko.Progress = s.watcher.Progress
	ko.ProgressDetail = s.watcher.ProgressDetail

	switch {
	case req.Resilient:
		resp.Cache = CacheBypass
		out, rerr := resilience.Solve(ctx, a, c.x, b, resilience.Options{
			Precond: req.Precond,
			Setup:   s.setupOptions(ctx, req),
			Solve:   ko,
			Metrics: s.reg,
		})
		if out == nil {
			s.watcher.End(krylov.Result{})
			return nil, fmt.Errorf("resilient solve: %v", rerr)
		}
		if rerr != nil && !errors.Is(rerr, resilience.ErrNotConverged) &&
			!errors.Is(rerr, context.Canceled) && !errors.Is(rerr, context.DeadlineExceeded) {
			s.watcher.End(out.Result)
			return nil, fmt.Errorf("resilient solve: %v", rerr)
		}
		c.res, c.g, c.rout = out.Result, out.FSAI, out
		resp.Precond = out.Precond
		for _, at := range out.Log.Attempts {
			if at.Stage == "setup" {
				c.setupNS += at.NS
			} else {
				c.solveNS += at.NS
			}
		}
		if out.Recovered && c.res.Converged {
			s.obsSrv.SetHealth(obs.HealthDegraded, fmt.Sprintf(
				"job %s recovered on %q after %d retries and %d fallbacks",
				j.id, out.Precond, out.Log.Retries, out.Log.Fallbacks))
		}

	case req.Precond == "none" || req.Precond == "jacobi":
		resp.Cache = CacheUncached
		t0 := time.Now()
		var m krylov.Preconditioner = krylov.Identity{}
		if req.Precond == "jacobi" {
			m = krylov.NewJacobi(a)
		}
		c.setupNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		c.res = krylov.Solve(a, c.x, b, m, ko)
		c.solveNS = time.Since(t0).Nanoseconds()

	default: // cacheable FSAI family
		// The build runs on this job's goroutine, so the setup spans nest
		// under this job's precond-cache span; coalesced waiters get the
		// factor without foreign spans.
		cacheSpan := trace.StartSpan(ctx, "precond-cache")
		entry, hit, err := s.factor(ctx, j.log, rm, req)
		if err != nil {
			cacheSpan.SetAttr("cache", "error")
			cacheSpan.End()
			s.watcher.End(krylov.Result{})
			return nil, fmt.Errorf("preconditioner: %v", err)
		}
		resp.Cache = CacheHit // the whole point: warm solves pay no setup
		if !hit {
			resp.Cache = CacheMiss
			c.setupNS = entry.SetupNS
		}
		cacheSpan.SetAttr("cache", resp.Cache)
		cacheSpan.End()
		c.entry, c.g = entry, entry.P
		m := entry.P.CloneForApply(s.opt.Workers)
		t0 := time.Now()
		c.res = krylov.Solve(a, c.x, b, m, ko)
		c.solveNS = time.Since(t0).Nanoseconds()
	}
	s.watcher.End(c.res)

	// Live roofline placement: price the solve's kernel classes against the
	// machine model and fold the SpMV bandwidth into the matrix's rolling
	// baseline. The same numbers go to the roofline_* gauges, the response
	// and the run report, so all three agree for this job id.
	if t := c.res.Timing; c.res.Iterations > 0 && t != (krylov.Timing{}) {
		var gm *sparse.CSR
		if c.g != nil {
			gm = c.g.G
		}
		est := roofline.SolveEstimate(a, gm, c.res.Iterations,
			t.SpMV.Nanoseconds(), t.Precond.Nanoseconds(), t.BLAS1.Nanoseconds(),
			s.roofline.Machine())
		if len(est) > 0 {
			rs := s.roofline.Observe(j.id, rm.Info.Fingerprint, c.res.Iterations, est)
			c.rsol = &rs
			if rs.LowBandwidth {
				j.log.Warn("solve bandwidth >30% below matrix baseline",
					"matrix", shortFP(rm.Info.Fingerprint), "baseline_bw", rs.BaselineBandwidthBytes)
			}
		}
	}
	s.complete(j, resp, c)
	return resp, nil
}

// runSetupOnly executes a setup_only job: the preconditioner lands in the
// cache (and the store) and the response reports the cache outcome, but no
// CG runs. A warm fleet replica answers these in microseconds — the router
// calls it repeatedly without occupying shard solve capacity for long.
func (s *Server) runSetupOnly(ctx context.Context, j *job, resp *SolveResponse) (*SolveResponse, error) {
	cacheSpan := trace.StartSpan(ctx, "precond-cache")
	entry, hit, err := s.factor(ctx, j.log, j.rm, j.req)
	if err != nil {
		cacheSpan.SetAttr("cache", "error")
		cacheSpan.End()
		return nil, fmt.Errorf("preconditioner: %v", err)
	}
	resp.Cache = CacheHit
	if !hit {
		resp.Cache = CacheMiss
		resp.SetupNS = entry.SetupNS
	}
	cacheSpan.SetAttr("cache", resp.Cache)
	cacheSpan.SetAttr("setup_only", "1")
	cacheSpan.End()
	resp.Status = StatusSetupOnly
	resp.TraceID = j.tc.TraceID
	if s.opt.RunsDir != "" {
		resp.Report = s.writeJobReport(j, resp, entry.P, nil, krylov.Result{}, nil)
	}
	return resp, nil
}

// buildFSAIFamily constructs the cacheable preconditioners.
func buildFSAIFamily(name string, a *sparse.CSR, fo fsai.Options) (*fsai.Preconditioner, error) {
	switch name {
	case "fsai":
		fo.Variant = fsai.VariantFSAI
	case "fsaie-sp":
		fo.Variant = fsai.VariantSp
	case "fsaie":
		fo.Variant = fsai.VariantFull
	case "adaptive":
		return fsai.ComputeAdaptive(a, fsai.AdaptiveOptions{
			MaxPerRow:   12,
			Tol:         0.02,
			CacheExtend: fo.LineBytes,
			AlignElems:  fo.AlignElems,
			Filter:      fo.Filter,
			Workers:     fo.Workers,
		})
	default:
		return nil, fmt.Errorf("%q is not an FSAI-family preconditioner", name)
	}
	return fsai.Compute(a, fo)
}

// writeJobReport emits the job's run report into RunsDir, returning the
// file name ("" on write failure — reports are best-effort; the job result
// already went to the client).
func (s *Server) writeJobReport(j *job, resp *SolveResponse, g *fsai.Preconditioner, rout *resilience.Outcome, res krylov.Result, rsol *obs.RooflineSolve) string {
	id, rm, req := j.id, j.rm, j.req
	entry := experiments.RunEntry{
		Matrix:      rm.label(),
		Rows:        rm.Info.Rows,
		NNZ:         rm.Info.NNZ,
		Variant:     resp.Precond,
		Filter:      req.Filter,
		Iterations:  resp.Iterations,
		Converged:   resp.Converged,
		Status:      resp.Status,
		SetupWallNS: resp.SetupNS,
		SolveWallNS: resp.SolveNS,
		Service: &experiments.RunService{
			JobID:       id,
			TraceID:     resp.TraceID,
			Fingerprint: rm.Info.Fingerprint,
			Cache:       resp.Cache,
			QueueWaitNS: j.ji.QueueWaitNS,
		},
	}
	// The slo section snapshots the fingerprint's solve-latency series
	// (including this job's own observation) so a report alone answers
	// "was this solve within objective, and how much budget is left".
	kind := obs.SLOColdSolve
	if resp.Cache == CacheHit {
		kind = obs.SLOWarmSolve
	}
	if st, ok := s.slo.State(rm.Info.Fingerprint, kind); ok {
		entry.SLO = &experiments.RunSLO{
			Kind:            st.SLO,
			ObjectiveNS:     st.ObjectiveNS,
			LatencyNS:       resp.SetupNS + resp.SolveNS,
			Met:             resp.SetupNS+resp.SolveNS <= st.ObjectiveNS,
			BurnRate:        st.BurnRate,
			BudgetRemaining: st.BudgetRemaining,
			IterAnomaly:     resp.IterAnomaly,
		}
	}
	if t := res.Timing; t != (krylov.Timing{}) {
		entry.Timing = &experiments.RunTiming{
			SpMVNS:    t.SpMV.Nanoseconds(),
			PrecondNS: t.Precond.Nanoseconds(),
			BLAS1NS:   t.BLAS1.Nanoseconds(),
			TotalNS:   t.Total.Nanoseconds(),
		}
	}
	if rsol != nil {
		// The exact values the roofline_* gauges exported for this job.
		entry.Roofline = &experiments.RunRoofline{
			Machine:                rsol.Machine,
			Kernels:                rsol.Kernels,
			BaselineBandwidthBytes: rsol.BaselineBandwidthBytes,
			LowBandwidth:           rsol.LowBandwidth,
		}
	}
	if g != nil {
		entry.NNZG = g.NNZ()
		entry.ExtPct = g.ExtensionPct()
		entry.SetupPhases = g.Stats.Phases
	}
	if bi := resp.Batch; bi != nil {
		// Batched job: the entry records the block width and how the batch
		// amortized the solve (schema v7). SolveWallNS above is the whole
		// block's wall time; per_rhs_ns is this job's amortized share.
		entry.NRHS = bi.Size
		entry.Batch = &experiments.RunBatch{
			ID:           bi.ID,
			Size:         bi.Size,
			Column:       bi.Column,
			WindowWaitNS: bi.WindowWaitNS,
			SolveWallNS:  bi.SolveWallNS,
			PerRHSNS:     bi.PerRHSNS,
			AchievedAI:   bi.AchievedAI,
		}
	}
	entry.Resilience = experiments.RunResilienceOf(req.Precond, rout)
	rep := &experiments.RunReport{
		Tool:      "fsaid",
		LineBytes: req.LineBytes,
		Entries:   []experiments.RunEntry{entry},
	}
	name := id + ".json"
	if err := experiments.WriteRunReportFile(filepath.Join(s.opt.RunsDir, name), rep); err != nil {
		return ""
	}
	return name
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
