package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	// offeredRPS is the open-loop arrival rate of service-mix and
	// routed-warm, frozen so later builds face the same load. The
	// service-mix traffic sent closed loop by two clients saturated at
	// 126 req/s on the 2-CPU host that defined the benchmark; 30 req/s is
	// about 24% of that. At 75, 50 and 40 req/s the warm percentiles
	// spread further between seeds (see README.md).
	offeredRPS = 30.0
	// warmConns bounds the warm-solve client's connections to the daemon
	// or router. Cold uploads and deletes come from other users: a second
	// client with one connection, so a slow store write does not hold one
	// of the warm client's connections.
	warmConns = 2
	// Latency limits for goodput: a request that takes longer, fails or
	// is refused misses.
	warmLimit = 50 * time.Millisecond
	coldLimit = 250 * time.Millisecond
	// batchWindow is the daemon's request-batcher window.
	batchWindow = 2 * time.Millisecond
	// requestTimeout bounds one client request.
	requestTimeout = 30 * time.Second
	// traceEvery samples one warm job in this many for the daemon's own
	// span tree (traced run only).
	traceEvery = 10
	// warmThreshold is the router's WarmThreshold: after this many warm
	// hits on a matrix it copies the factor to the replica shard.
	warmThreshold = 3
)

// serviceMix is service-mix's request shapes: 5% cold solves, 5% deletes
// and 90% warm solves. The cold requests perturb two suite matrices with
// different set-up costs (elas28x28-s100 and lap64x64, about 30 and 60 ms
// of FSAIE set-up): with ~35 cold requests a run, each base gets enough
// samples for a steady median.
var serviceMix = mix{coldEvery: 20, coldBases: []int{0, 3}}

// hotMatrix is one matrix of the registered hot set, kept locally so the
// benchmark can check every returned solution.
type hotMatrix struct {
	alias string
	a     *sparse.CSR
}

// hotSet is the quick suite in its fixed order: index 0 is the most
// popular matrix of the Zipf draw.
func hotSet() []hotMatrix {
	var out []hotMatrix
	for _, s := range matgen.QuickSuite() {
		out = append(out, hotMatrix{s.Name, s.Generate()})
	}
	return out
}

// newClient returns a client limited to conns connections.
func newClient(base string, conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	cl := client.New(base)
	cl.SetHTTPClient(&http.Client{Transport: tr})
	return cl, tr
}

// daemon is one in-process fsaid.
type daemon struct {
	srv  *service.Server
	reg  *telemetry.Registry
	base string
	runs string
}

// startDaemon starts a daemon on a loopback port. A durable daemon has a
// store and a runs directory under dir.
func startDaemon(dir string, durable bool) (*daemon, error) {
	reg := telemetry.NewRegistry()
	opt := service.Options{
		Metrics:      reg,
		MaxInflight:  2,
		BatchWindow:  batchWindow,
		CacheEntries: 32, // the hot set plus the live cold matrices
		TraceHistory: 4096,
	}
	if durable {
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{Metrics: reg})
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		opt.Store = st
		opt.RunsDir = filepath.Join(dir, "runs")
		if err := os.MkdirAll(opt.RunsDir, 0o755); err != nil {
			return nil, err
		}
	}
	srv := service.New(opt)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, reg: reg, base: "http://" + addr.String(), runs: opt.RunsDir}, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
}

// fleet is a cluster.Router in front of two store-less shards.
type fleet struct {
	shards []*daemon
	router *cluster.Router
	reg    *telemetry.Registry
	base   string
}

func startFleet() (*fleet, error) {
	f := &fleet{reg: telemetry.NewRegistry()}
	var peers []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon("", false)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, d)
		peers = append(peers, d.base)
	}
	ring := cluster.NewRing(0)
	members := cluster.NewMembership(peers, ring, cluster.MembershipOptions{Registry: f.reg})
	f.router = cluster.NewRouter(cluster.RouterOptions{
		Replicas:      2,
		WarmThreshold: warmThreshold,
		Membership:    members,
		Ring:          ring,
		Registry:      f.reg,
		Traces:        trace.NewRecorder(256, "", f.reg),
	})
	addr, err := f.router.Start("127.0.0.1:0")
	if err != nil {
		members.Close()
		f.router = nil
		f.stop()
		return nil, err
	}
	f.base = "http://" + addr.String()
	return f, nil
}

func (f *fleet) stop() {
	if f.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := f.router.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: router shutdown: %v\n", err)
		}
		cancel()
	}
	for _, d := range f.shards {
		d.stop()
	}
}

// registerAndPrime registers the hot set and solves once on each matrix so
// its factor is cached. It returns the priming solves' latencies in ms.
func registerAndPrime(cl *client.Client, hot []hotMatrix) ([]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*requestTimeout)
	defer cancel()
	for _, h := range hot {
		if _, err := cl.RegisterMatgen(ctx, h.alias, h.alias); err != nil {
			return nil, fmt.Errorf("registering %s: %w", h.alias, err)
		}
	}
	var lat []float64
	for _, h := range hot {
		t0 := time.Now()
		resp, err := cl.Solve(ctx, service.SolveRequest{Matrix: h.alias, Precond: "fsaie"})
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", h.alias, err)
		}
		if !resp.Converged {
			return nil, fmt.Errorf("priming %s: status %s", h.alias, resp.Status)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// replicate sends warmThreshold warm solves per hot matrix through the
// router, so it copies each factor to the replica shard, and waits until
// every copy is made. The copies are lazy set-up: left to the run, they
// would put ten factor builds into its first seconds.
func replicate(cl *client.Client, hot []hotMatrix, reg *telemetry.Registry) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	for _, h := range hot {
		for i := 0; i < warmThreshold; i++ {
			resp, err := cl.Solve(ctx, service.SolveRequest{Matrix: h.alias, Precond: "fsaie"})
			if err != nil {
				return fmt.Errorf("warming %s: %w", h.alias, err)
			}
			if !resp.Converged {
				return fmt.Errorf("warming %s: status %s", h.alias, resp.Status)
			}
		}
	}
	copies := reg.Counter(`cluster.warmups{outcome="ok"}`)
	for copies.Value() < int64(len(hot)) {
		if ctx.Err() != nil {
			return fmt.Errorf("%d of %d hot factors copied to replicas", copies.Value(), len(hot))
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checkResponse returns why a solve response is wrong, or "".
func checkResponse(a *sparse.CSR, b []float64, resp *service.SolveResponse) string {
	if !resp.Converged || resp.Status != "converged" {
		return fmt.Sprintf("status %s after %d iterations", resp.Status, resp.Iterations)
	}
	if len(resp.X) != a.Rows {
		return fmt.Sprintf("solution has %d entries, want %d", len(resp.X), a.Rows)
	}
	if rel := residual(make([]float64, a.Rows), a, resp.X, b); !(rel <= residualLimit) {
		return fmt.Sprintf("residual %.3g > %.0g", rel, residualLimit)
	}
	return ""
}

// traffic is the state of one open-loop run against a daemon or router.
type traffic struct {
	c    *runCtx
	res  *result
	warm *client.Client // warm solves
	cold *client.Client // cold uploads, their solves and deletes
	hot  []hotMatrix
	req  atomic.Int64

	mu       sync.Mutex
	coldLive []string // finished cold matrices, oldest first
	coldSeq  int
	good     int
	skipped  int // deletes with no cold matrix to delete
	warmLat  []float64
	coldLat  [][]float64 // per base matrix
	iters    []float64
	http     []float64 // client round trip minus the server's total_ns
	queue    []float64
	solve    []float64
	setup    []float64
	register []float64
	del      []float64
	hits     int
	answered int
	batched  []float64 // batch sizes of batched warm jobs
	traceIDs []string  // sampled warm jobs
	// coldTraceIDs are the jobs that paid preconditioner set-up.
	coldTraceIDs []string
}

func newTraffic(c *runCtx, res *result, warm, cold *client.Client, hot []hotMatrix) *traffic {
	return &traffic{c: c, res: res, warm: warm, cold: cold, hot: hot, coldLat: make([][]float64, len(hot))}
}

// colds is the number of answered cold requests.
func (t *traffic) colds() int {
	n := 0
	for _, l := range t.coldLat {
		n += len(l)
	}
	return n
}

func (t *traffic) do(a arrival, due time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	tr := t.c.tr
	req := t.req.Add(1)
	root := tr.Add("request", 0, req, tr.at(due), -1)
	tr.Add("gen.late", root, req, tr.at(due), tr.now())
	defer tr.End(root)
	switch a.kind {
	case warmSolve:
		h := t.hot[a.mat]
		b := rhs(rand.New(rand.NewSource(a.seed)), h.a)
		lat, ok := t.solve1(ctx, t.warm, root, req, h.a, h.alias, b, due)
		if ok {
			t.mu.Lock()
			t.warmLat = append(t.warmLat, lat)
			if lat <= ms(warmLimit) {
				t.good++
			}
			t.mu.Unlock()
		}
	case coldSolve:
		rng := rand.New(rand.NewSource(a.seed))
		base := t.hot[a.mat]
		a2 := base.a.AddDiag((0.01 + 0.09*rng.Float64()) * base.a.MaxNorm())
		b := rhs(rng, a2)
		eid := tr.Begin("perfbench.encode", root, req)
		var buf bytes.Buffer
		err := mmio.Write(&buf, a2, true)
		tr.End(eid)
		if err != nil {
			t.res.fail("encoding cold matrix: %v", err)
			return
		}
		t.mu.Lock()
		t.coldSeq++
		alias := fmt.Sprintf("cold-%d", t.coldSeq)
		t.mu.Unlock()
		t0 := time.Now()
		rid := tr.Begin("client.register", root, req)
		_, err = t.cold.RegisterMatrixMarket(ctx, &buf, alias)
		tr.End(rid)
		if err != nil {
			t.res.fail("registering %s: %v", alias, err)
			return
		}
		regMS := ms(time.Since(t0))
		lat, ok := t.solve1(ctx, t.cold, root, req, a2, alias, b, due)
		if ok {
			t.mu.Lock()
			t.register = append(t.register, regMS)
			t.coldLat[a.mat] = append(t.coldLat[a.mat], lat)
			if lat <= ms(coldLimit) {
				t.good++
			}
			t.coldLive = append(t.coldLive, alias)
			t.mu.Unlock()
		}
	case deleteOld:
		t.mu.Lock()
		if len(t.coldLive) == 0 {
			t.skipped++
			t.mu.Unlock()
			return
		}
		alias := t.coldLive[0]
		t.coldLive = t.coldLive[1:]
		t.mu.Unlock()
		t0 := time.Now()
		did := tr.Begin("client.delete", root, req)
		err := t.cold.Unregister(ctx, alias)
		tr.End(did)
		if err != nil {
			t.res.fail("deleting %s: %v", alias, err)
			return
		}
		t.res.ok()
		t.mu.Lock()
		t.del = append(t.del, ms(time.Since(t0)))
		t.mu.Unlock()
	}
}

// solve1 sends one return_solution solve, checks the answer and records
// the response's timings. It returns the latency from due in ms.
func (t *traffic) solve1(ctx context.Context, cl *client.Client, root int, req int64, a *sparse.CSR, ref string, b []float64, due time.Time) (float64, bool) {
	tr := t.c.tr
	sent := time.Now()
	sid := tr.Begin("client.solve", root, req)
	resp, err := cl.Solve(ctx, service.SolveRequest{Matrix: ref, Precond: "fsaie", RHS: b, ReturnSolution: true})
	tr.End(sid)
	recv := time.Now()
	if err != nil {
		t.res.fail("solve on %s: %v", ref, err)
		return 0, false
	}
	if tr.on() {
		// The daemon's reported times, placed at the end of the round
		// trip: what the client span covers beyond them is HTTP.
		s0 := tr.at(recv) - resp.TotalNS
		srv := tr.Add("service.server", sid, req, s0, s0+resp.TotalNS)
		for _, p := range []struct {
			name string
			ns   int64
		}{{"service.queue_wait", resp.QueueWaitNS}, {"service.setup", resp.SetupNS}, {"service.solve", resp.SolveNS}} {
			tr.Add(p.name, srv, req, s0, s0+p.ns)
			s0 += p.ns
		}
	}
	cid := tr.Begin("perfbench.check", root, req)
	why := checkResponse(a, b, resp)
	tr.End(cid)
	if why != "" {
		t.res.fail("solve on %s: %s", ref, why)
		return 0, false
	}
	t.res.ok()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.answered++
	if resp.Cache == service.CacheHit {
		t.hits++
	}
	if resp.SetupNS > 0 {
		t.setup = append(t.setup, float64(resp.SetupNS)/1e6)
		if tr.on() {
			t.coldTraceIDs = append(t.coldTraceIDs, resp.TraceID)
		}
	} else {
		t.http = append(t.http, ms(recv.Sub(sent))-float64(resp.TotalNS)/1e6)
		t.iters = append(t.iters, float64(resp.Iterations))
		t.queue = append(t.queue, float64(resp.QueueWaitNS)/1e6)
		t.solve = append(t.solve, float64(resp.SolveNS)/1e6)
		if resp.Batch != nil {
			t.batched = append(t.batched, float64(resp.Batch.Size))
		}
		if tr.on() && t.answered%traceEvery == 0 {
			t.traceIDs = append(t.traceIDs, resp.TraceID)
		}
	}
	return ms(recv.Sub(due)), true
}

// runTraffic drives sched against base and fills the end-to-end figures.
func runTraffic(c *runCtx, res *result, base string, hot []hotMatrix, sched []arrival) (*traffic, []float64) {
	warm, warmTransport := newClient(base, warmConns)
	defer warmTransport.CloseIdleConnections()
	cold, coldTransport := newClient(base, 1)
	defer coldTransport.CloseIdleConnections()
	t := newTraffic(c, res, warm, cold, hot)
	hs := startHeapSampler()
	rt := readRuntime()
	late := runOpenLoop(time.Now(), sched, t.do)
	res.e2e["heap_live_mb"] = hs.Stop()
	allocKB, pause := rt.since(len(sched))
	res.e2e["latency_p50_ms"] = quantile(t.warmLat, 0.5)
	res.e2e["latency_p90_ms"] = quantile(t.warmLat, 0.9)
	// Within-limit completions per request sent, at the nominal rate: the
	// Poisson count of a seed's schedule does not move the figure.
	res.e2e["goodput_per_s"] = offeredRPS * float64(t.good) / float64(len(sched))
	res.e2e["iterations"] = mean(t.iters)
	res.note("offered %.1f req/s open loop, %d requests (%d warm, %d cold answered, %d deletes, %d deletes skipped), %d+1 client connections",
		offeredRPS, len(sched), len(t.warmLat), t.colds(), len(t.del), t.skipped, warmConns)
	res.note("latency_p95_ms %.4f ms (warm request, from due time)", quantile(t.warmLat, 0.95))
	res.note("gen.late_p95_ms %.4f ms", quantile(late, 0.95))
	res.note("working_set %.1f MB of hot-set matrices (L2 4 MiB/core, L3 300 MiB shared)", hotBytes(hot)/(1<<20))
	if c.tr.on() {
		res.layers["gen.late_p95_ms"] = quantile(late, 0.95)
		res.layers["gen.conn_cap"] = warmConns
		res.layers["runtime.alloc_kb_per_op"] = allocKB
		res.layers["runtime.gc_pause_ms"] = pause
		res.layers["ledger.residual_pct"] = newLedger(c.tr.Spans(), "request").residualPct
		res.layers["workload.working_set_mb"] = hotBytes(hot) / (1 << 20)
		res.layers["service.queue_wait_ms"] = median(t.queue)
		res.layers["service.solve_ms"] = median(t.solve)
		res.layers["service.cache_hit_ratio"] = float64(t.hits) / float64(t.answered)
		res.layers["service.batched_frac"] = float64(len(t.batched)) / float64(len(t.solve))
		res.layers["service.batch_size_mean"] = mean(t.batched)
		res.layers["krylov.iterations"] = mean(t.iters)
	}
	return t, late
}

func hotBytes(hot []hotMatrix) float64 {
	var s float64
	for _, h := range hot {
		s += csrBytes(h.a)
	}
	return s
}

// runServiceMix: open-loop warm solves, cold uploads and deletes against
// one store-backed daemon.
func runServiceMix(c *runCtx) (*result, error) {
	res := newResult()
	hot := hotSet()
	var d *daemon
	var setupS []float64
	for round := -1; round < setupRounds; round++ { // round -1 is not counted
		if d != nil {
			d.stop()
		}
		dir, err := os.MkdirTemp(c.work, "daemon-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err = startDaemon(dir, true)
		if err != nil {
			return nil, err
		}
		cl, transport := newClient(d.base, warmConns)
		_, err = registerAndPrime(cl, hot)
		transport.CloseIdleConnections()
		if err != nil {
			d.stop()
			return nil, err
		}
		if round >= 0 {
			setupS = append(setupS, time.Since(t0).Seconds())
		}
	}
	defer d.stop()
	res.e2e["setup_s"] = median(setupS)

	runsBefore := dirBytes(d.runs)
	rejected0 := d.reg.Counter("service.jobs.rejected").Value()
	sched := schedule(c.seed, offeredRPS, c.dur, serviceMix, len(hot))
	t, _ := runTraffic(c, res, d.base, hot, sched)
	var cold [][]float64
	for _, i := range serviceMix.coldBases {
		cold = append(cold, t.coldLat[i])
	}
	res.e2e["cold_p50_ms"] = perProblem(cold, 0.5)
	if c.tr.on() {
		res.layers["service.http_ms"] = median(t.http)
		res.layers["service.setup_ms"] = median(t.setup)
		res.layers["service.register_ms"] = median(t.register)
		res.layers["service.delete_ms"] = median(t.del)
		res.layers["service.rejected"] = float64(d.reg.Counter("service.jobs.rejected").Value() - rejected0)
		res.layers["obs.report_bytes_per_job"] = float64(dirBytes(d.runs)-runsBefore) / float64(t.answered)
		warm, err := daemonSpans(d.base, t.traceIDs)
		if err != nil {
			return nil, err
		}
		cold, err := daemonSpans(d.base, t.coldTraceIDs)
		if err != nil {
			return nil, err
		}
		res.layers["service.span.admission_ms"] = warm["admission-wait"] + warm["batch-window"]
		res.layers["service.span.cg_ms"] = warm["cg-solve"] + warm["batched-solve"]
		res.layers["service.span.precond_cache_ms"] = cold["precond-cache"]
		res.layers["service.span.setup_ms"] = cold["fsai-setup"]
		perCold, err := storeBytesPerCold(c, res, d, hot)
		if err != nil {
			return nil, err
		}
		res.layers["store.bytes_per_cold"] = perCold
	}
	return res, nil
}

// runRoutedWarm: the warm stream of service-mix through a cluster.Router
// in front of two shards.
func runRoutedWarm(c *runCtx) (*result, error) {
	res := newResult()
	hot := hotSet()
	var f *fleet
	var setupS []float64
	cold := make([][]float64, len(hot))             // priming solve ms, per matrix
	for round := -1; round < setupRounds; round++ { // round -1 is not counted
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		f, err = startFleet()
		if err != nil {
			return nil, err
		}
		cl, transport := newClient(f.base, warmConns)
		prime, err := registerAndPrime(cl, hot)
		if err == nil {
			err = replicate(cl, hot, f.reg)
		}
		transport.CloseIdleConnections()
		if err != nil {
			f.stop()
			return nil, err
		}
		if round < 0 {
			continue
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for i, l := range prime {
			cold[i] = append(cold[i], l)
		}
	}
	defer f.stop()
	res.e2e["setup_s"] = median(setupS)
	res.e2e["cold_p50_ms"] = perProblem(cold, 0.5)
	spill0 := f.reg.Counter(`cluster.forwards{outcome="backpressure"}`).Value()
	sched := schedule(c.seed, offeredRPS, c.dur, mix{}, len(hot))
	t, _ := runTraffic(c, res, f.base, hot, sched)
	if c.tr.on() {
		res.layers["cluster.hop_ms"] = median(t.http)
		// Made in set-up (replicate) and counted from the fleet's start.
		res.layers["cluster.warm_replications"] = float64(f.reg.Counter(`cluster.warmups{outcome="ok"}`).Value())
		res.layers["cluster.spills"] = float64(f.reg.Counter(`cluster.forwards{outcome="backpressure"}`).Value() - spill0)
	}
	return res, nil
}

// daemonSpans fetches the sampled jobs' span trees from GET /traces/<id>
// and returns the mean time per job spent in each span name. A batched
// job's "batch-window" span counts only its own time (window and
// admission wait), not the "batched-solve" span nested in it.
func daemonSpans(base string, ids []string) (map[string]float64, error) {
	out := map[string]float64{}
	if len(ids) == 0 {
		return out, nil
	}
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		ns := s.NS
		if s.Name == "batch-window" {
			for _, ch := range s.Children {
				ns -= ch.NS
			}
		}
		name, _, _ := strings.Cut(s.Name, ":")
		out[name] += float64(ns) / 1e6 / float64(len(ids))
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	for _, id := range ids {
		resp, err := http.Get(base + "/traces/" + id)
		if err != nil {
			return nil, fmt.Errorf("fetching trace %s: %w", id, err)
		}
		var t trace.Trace
		err = json.NewDecoder(resp.Body).Decode(&t)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace %s: HTTP %d: %v", id, resp.StatusCode, err)
		}
		walk(t.Root)
	}
	return out, nil
}

// storeBytesPerCold uploads and solves three more cold matrices one at a
// time after the run and returns the store growth per matrix.
func storeBytesPerCold(c *runCtx, res *result, d *daemon, hot []hotMatrix) (float64, error) {
	cl, transport := newClient(d.base, 1)
	defer transport.CloseIdleConnections()
	t := newTraffic(&runCtx{seed: c.seed, dur: c.dur, work: c.work}, res, cl, cl, hot)
	t.coldSeq = 1 << 20
	rng := rand.New(rand.NewSource(c.seed))
	before := d.srv.Store().Stats().Bytes
	const n = 3
	for i := 0; i < n; i++ {
		t.do(arrival{kind: coldSolve, mat: i, seed: rng.Int63()}, time.Now())
	}
	if t.colds() != n {
		return 0, fmt.Errorf("store probe: %d of %d cold solves answered", t.colds(), n)
	}
	return float64(d.srv.Store().Stats().Bytes-before) / n, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
