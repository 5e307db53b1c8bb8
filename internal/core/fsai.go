package fsai

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/parallel"
	"repro/internal/pattern"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// Variant selects the preconditioner construction of Section 7.1.
type Variant int

const (
	// VariantFSAI is the state-of-the-art baseline, Algorithm 1.
	VariantFSAI Variant = iota
	// VariantSp is FSAIE(sp): one-sided cache-friendly extension (spatial
	// locality of Gp), Algorithm 4 without steps 5-6.
	VariantSp
	// VariantFull is FSAIE(full): two-sided extension, full Algorithm 4.
	VariantFull
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantFSAI:
		return "FSAI"
	case VariantSp:
		return "FSAIE(sp)"
	case VariantFull:
		return "FSAIE(full)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures a preconditioner setup.
type Options struct {
	// Variant selects FSAI / FSAIE(sp) / FSAIE(full).
	Variant Variant

	// Filter is the extension filtering threshold: an extension entry g_ij
	// survives iff |g_ij| >= Filter * |g_ii| in the precalculated G (a
	// scale-independent order-of-magnitude comparison with the diagonal).
	// The paper evaluates 0.0, 0.001, 0.01 and 0.1. Ignored by VariantFSAI.
	Filter float64

	// LineBytes is the cache line size driving the extension (64 for
	// Skylake/POWER9, 256 for A64FX). Ignored by VariantFSAI.
	LineBytes int

	// AlignElems is the element offset of the multiplying vector's first
	// element within its cache line (Section 4.1). Obtain it for a concrete
	// vector with cachesim.AlignOf.
	AlignElems int

	// PatternPower is the exponent N of Ã^N used for the initial pattern.
	// The paper's evaluation uses N == 1 (the lower triangle of A itself).
	PatternPower int

	// ThresholdTau drops small entries of A before powering (Ã). The
	// paper's evaluation uses no thresholding (0).
	ThresholdTau float64

	// PrecalcTol and PrecalcMaxIter control the loose-tolerance CG used to
	// precalculate G for filtering (Section 5). A zero PrecalcTol picks
	// Filter/2 clamped to [5e-3, 0.1]: the estimate only needs to be
	// accurate near the filtering boundary, and CG from a zero guess
	// systematically underestimates small entries, so the tolerance must
	// sit safely below the boundary ratio or borderline entries get
	// dropped that exact magnitudes would keep. PrecalcMaxIter defaults
	// to 25.
	PrecalcTol     float64
	PrecalcMaxIter int

	// MaxRowNNZ bounds the per-row size of extended patterns (see
	// ExtendPattern); <= 0 disables the bound. DefaultOptions sets 512.
	MaxRowNNZ int

	// MaxPatternNNZFactor, when > 0, fails the setup with a typed
	// ReasonPatternBlowup SetupError if an extended pattern grows beyond
	// factor × nnz(A). It guards production setups against pathological
	// fill-in (a blown-up G costs more per iteration than it saves);
	// 0 disables the check.
	MaxPatternNNZFactor float64

	// StandardFiltering switches FSAIE to the classical compute-drop-rescale
	// post-filtering of Algorithm 1 instead of the precalculation strategy,
	// for the Table 3 comparison.
	StandardFiltering bool

	// PostFilter is Algorithm 1's own small-entry drop threshold for the
	// baseline FSAI (0 keeps everything but exact zeros, as in the paper's
	// evaluation).
	PostFilter float64

	// Workers bounds setup parallelism (<=0: all CPUs).
	Workers int

	// Tracer, when non-nil, receives one named span per setup phase of
	// Algorithms 3-4 (base pattern, cache-aware extension, precalc CG,
	// filter, final Frobenius solve). Per-phase wall times are always
	// recorded in SetupStats.Phases regardless.
	Tracer *telemetry.Tracer

	// Ctx, when non-nil, carries the caller's pprof label set; Compute runs
	// under it with phase=setup merged in, so continuous-profiling windows
	// attribute FSAI setup CPU to the owning job. Setup is not cancelled
	// through it.
	Ctx context.Context
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation campaign: initial pattern = lower triangle of A, no
// thresholding, filter 0.01, 64-byte lines.
func DefaultOptions() Options {
	return Options{
		Variant:      VariantFull,
		Filter:       0.01,
		LineBytes:    64,
		PatternPower: 1,
		MaxRowNNZ:    512,
		Workers:      1,
	}
}

func (o *Options) normalize() {
	if o.LineBytes <= 0 {
		o.LineBytes = 64
	}
	if o.PatternPower <= 0 {
		o.PatternPower = 1
	}
	if o.PrecalcTol <= 0 {
		o.PrecalcTol = o.Filter / 2
		if o.PrecalcTol > 0.1 {
			o.PrecalcTol = 0.1
		}
		if o.PrecalcTol < 5e-3 {
			o.PrecalcTol = 5e-3
		}
	}
	if o.PrecalcMaxIter <= 0 {
		o.PrecalcMaxIter = 25
	}
}

// Setup phase names recorded in SetupStats.Phases and emitted as tracer
// spans; one per phase of Algorithms 3-4.
const (
	PhaseBasePattern = "base-pattern"    // steps 1-2: lower(Ã^N)
	PhaseExtend      = "extend"          // Algorithm 3: cache-friendly fill-in
	PhasePrecalc     = "precalc"         // Section 5: loose-tolerance CG estimate
	PhaseFilter      = "filter"          // drop weak extension entries
	PhaseSolve       = "frobenius-solve" // exact local solves on the final pattern
	PhasePostFilter  = "post-filter"     // classical post-filtering (Algorithm 1 / Table 3)
)

// PhaseTiming is the measured wall time of one setup phase. Phases appear in
// execution order; FSAIE(full) repeats extend/precalc/filter for the
// transposed pass, so names may occur twice.
type PhaseTiming struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// SetupStats records the work done during setup; the performance model
// prices these into simulated setup seconds.
type SetupStats struct {
	// DirectFlops counts floating-point work of the exact local solves
	// (Cholesky ~ s³/3 + solves ~ 2s² per row of local size s).
	DirectFlops float64
	// PrecalcFlops counts the loose CG precalculation work in the dense
	// model the performance model prices (2s² per iteration per row of
	// local size s), not the flops the sparse local kernel executes; the
	// sparse kernel runs the same iterations on the local system's stored
	// entries only.
	PrecalcFlops float64
	// PatternOps counts symbolic work: entries visited while powering,
	// extending and filtering patterns.
	PatternOps float64
	// Rows, MaxLocal record the number of local systems and the largest one.
	Rows, MaxLocal int
	// Phases holds per-phase wall times in execution order.
	Phases []PhaseTiming
}

// PhaseNS returns the total wall nanoseconds recorded for the named phase
// (summing repeated passes), or 0 if the phase did not run.
func (s *SetupStats) PhaseNS(name string) int64 {
	var total int64
	for _, p := range s.Phases {
		if p.Name == name {
			total += p.NS
		}
	}
	return total
}

// TotalPhaseNS returns the summed wall nanoseconds across all phases.
func (s *SetupStats) TotalPhaseNS() int64 {
	var total int64
	for _, p := range s.Phases {
		total += p.NS
	}
	return total
}

func (s *SetupStats) add(o SetupStats) {
	s.DirectFlops += o.DirectFlops
	s.PrecalcFlops += o.PrecalcFlops
	s.PatternOps += o.PatternOps
	if o.MaxLocal > s.MaxLocal {
		s.MaxLocal = o.MaxLocal
	}
	s.Rows += o.Rows
}

// Preconditioner is a computed FSAI factorization M⁻¹ = GᵀG ≈ A⁻¹. It
// implements krylov.Preconditioner; applying it costs two SpMV products.
type Preconditioner struct {
	// G is the lower-triangular factor in CSR.
	G *sparse.CSR
	// GT is Gᵀ, stored explicitly in CSR as the paper's implementation does,
	// so both products traverse rows with stride-1 matrix accesses.
	GT *sparse.CSR
	// BasePattern is the initial (numerical-criteria) pattern of G;
	// FinalPattern the pattern after extensions and filtering.
	BasePattern, FinalPattern *pattern.Pattern
	// Stats records setup work for the performance model.
	Stats SetupStats
	// Workers is the SpMV parallelism used by Apply. The convention matches
	// krylov.Options.Workers: <=0 means all CPUs, 1 means serial. (Before
	// the kernel-layer rewrite, Apply treated 0 as serial while the rest of
	// the stack treated it as "all CPUs"; the mismatch is fixed.)
	Workers int

	tmp  []float64
	btmp []float64 // block-apply scratch (rows × k), from the size-keyed pool
	eng  *kernels.Engine
	lctx context.Context // pprof label context for Apply's pooled sweeps
}

// SetLabelContext makes Apply's pooled SpMV dispatches run under ctx's
// pprof labels (see kernels.Engine.SetLabelContext). krylov.Solve calls
// this automatically when its own label context is set.
func (p *Preconditioner) SetLabelContext(ctx context.Context) {
	p.lctx = ctx
	if p.eng != nil {
		p.eng.SetLabelContext(ctx)
	}
}

// Apply computes z = Gᵀ(G r), the FSAI preconditioning operation: two SpMV
// products scheduled on the persistent worker pool with per-matrix
// nnz-balanced partition plans. The scratch vector and kernel engine are
// reused across calls (Compute pre-allocates them), so steady-state
// applications perform no heap allocations.
//
// Apply is not safe for concurrent use of one Preconditioner; concurrent
// solves need their own instance (or their own clone of G/GT).
func (p *Preconditioner) Apply(z, r []float64) {
	w := p.Workers
	if w <= 0 {
		w = parallel.MaxWorkers()
	}
	if p.tmp == nil || len(p.tmp) != p.G.Rows {
		p.tmp = make([]float64, p.G.Rows)
	}
	if w == 1 {
		p.G.MulVec(p.tmp, r)
		p.GT.MulVec(z, p.tmp)
		return
	}
	if p.eng == nil || p.eng.Workers() != w {
		p.eng = kernels.New(p.G.Rows, w)
		p.eng.SetLabelContext(p.lctx)
	}
	p.eng.SpMV(p.G, p.tmp, r)
	p.eng.SpMV(p.GT, z, p.tmp)
}

// ApplyBlock computes Z = Gᵀ(G R) for k column-major residual vectors in
// two SpMM sweeps: the factors' CSR streams are read once for all k
// columns instead of once per column, which is where the batched solve
// path earns its per-RHS speedup. Column j of the result is bit-identical
// to Apply on column j (the SpMM kernels preserve the per-column
// accumulation order), and k = 1 is exactly Apply. The (rows × k) scratch
// comes from the kernels size-keyed pool, so steady-state block
// applications at a fixed k allocate nothing.
//
// Like Apply, ApplyBlock is not safe for concurrent use of one
// Preconditioner.
func (p *Preconditioner) ApplyBlock(z, r []float64, k int) {
	if k == 1 {
		p.Apply(z, r)
		return
	}
	w := p.Workers
	if w <= 0 {
		w = parallel.MaxWorkers()
	}
	if need := p.G.Rows * k; len(p.btmp) != need {
		if p.btmp != nil {
			kernels.PutBlockScratch(p.btmp)
		}
		p.btmp = kernels.GetBlockScratch(need)
	}
	if w == 1 {
		p.G.MulMat(p.btmp, r, k)
		p.GT.MulMat(z, p.btmp, k)
		return
	}
	if p.eng == nil || p.eng.Workers() != w {
		p.eng = kernels.New(p.G.Rows, w)
		p.eng.SetLabelContext(p.lctx)
	}
	p.eng.SpMM(p.G, p.btmp, r, k)
	p.eng.SpMM(p.GT, z, p.btmp, k)
}

// initApply pre-allocates Apply's scratch and engine (and the partition
// plans of both factors) so the first application inside the solve loop
// allocates nothing.
func (p *Preconditioner) initApply() {
	if p.G == nil || p.GT == nil {
		return
	}
	w := p.Workers
	if w <= 0 {
		w = parallel.MaxWorkers()
	}
	p.tmp = make([]float64, p.G.Rows)
	if w > 1 {
		p.eng = kernels.New(p.G.Rows, w)
		p.G.PartitionPlan(w)
		p.GT.PartitionPlan(w)
	}
}

// CloneForApply returns a Preconditioner that shares p's (immutable)
// factors, patterns and stats but owns its own Apply scratch and kernel
// engine. Apply is not safe for concurrent use of one Preconditioner, so a
// cache serving one computed factor to many simultaneous solves hands each
// solve its own clone: the expensive state (G, GT, partition plans) stays
// shared, only the per-solve scratch is duplicated. workers <= 0 keeps p's
// worker setting.
func (p *Preconditioner) CloneForApply(workers int) *Preconditioner {
	if workers <= 0 {
		workers = p.Workers
	}
	c := &Preconditioner{
		G:            p.G,
		GT:           p.GT,
		BasePattern:  p.BasePattern,
		FinalPattern: p.FinalPattern,
		Stats:        p.Stats,
		Workers:      workers,
	}
	c.initApply()
	return c
}

// FromFactors reconstructs a Preconditioner from previously computed
// state — the factors G/Gᵀ, the patterns and the setup stats — and
// pre-allocates the Apply scratch exactly like Compute does. It exists for
// the durable store: a factor rehydrated from disk is bit-identical to the
// one that was computed, so warm solves after a restart reproduce the
// original arithmetic. The patterns may be nil (report pattern sections
// then read as zero). workers follows the krylov convention (<=0: all
// CPUs).
func FromFactors(g, gt *sparse.CSR, base, final *pattern.Pattern, stats SetupStats, workers int) *Preconditioner {
	p := &Preconditioner{
		G:            g,
		GT:           gt,
		BasePattern:  base,
		FinalPattern: final,
		Stats:        stats,
		Workers:      workers,
	}
	p.initApply()
	return p
}

// NNZ returns the stored-entry count of the lower factor G.
func (p *Preconditioner) NNZ() int { return p.G.NNZ() }

// ExtensionPct returns the percentage of entries the final pattern adds on
// top of the base pattern (the "% NNZ" columns of Table 1). Zero when the
// patterns are absent (e.g. a factor rehydrated without them).
func (p *Preconditioner) ExtensionPct() float64 {
	if p.BasePattern == nil || p.FinalPattern == nil {
		return 0
	}
	base := p.BasePattern.NNZ()
	if base == 0 {
		return 0
	}
	return 100 * float64(p.FinalPattern.NNZ()-base) / float64(base)
}

// ExtensionPattern returns the fill-in-only pattern: the positions the
// cache-friendly extension (and any surviving filtering) added on top of
// the base pattern. These are the entries whose cache behaviour the miss
// attribution profiler reports separately from the base entries.
func (p *Preconditioner) ExtensionPattern() *pattern.Pattern {
	return p.FinalPattern.Minus(p.BasePattern)
}

// PublishSetupStats records s in reg as labelled per-phase/per-variant
// series: one counter of accumulated nanoseconds per (phase, variant) and
// one setup counter per variant. Nil-safe on a nil registry.
func PublishSetupStats(reg *telemetry.Registry, variant string, s *SetupStats) {
	if reg == nil || s == nil {
		return
	}
	reg.SetHelp("fsai_setup_phase_ns", "accumulated FSAI setup wall nanoseconds by phase and variant")
	reg.SetHelp("fsai_setups", "preconditioner setups by variant")
	for _, ph := range s.Phases {
		reg.Counter(`fsai.setup.phase_ns{phase="` + ph.Name + `",variant="` + variant + `"}`).Add(ph.NS)
	}
	reg.Counter(`fsai.setups{variant="` + variant + `"}`).Inc()
}

// ErrNotSPD is reported when a local system A(S_i,S_i) is not positive
// definite, which for exact arithmetic cannot happen with SPD A.
var ErrNotSPD = errors.New("fsai: local system not positive definite (is A SPD?)")

// InitialPattern computes the a-priori pattern of G: the lower triangle
// (diagonal included) of the pattern of Ã^N, where Ã is A thresholded with
// tau (Algorithm 1/2/4, steps 1-2).
func InitialPattern(a *sparse.CSR, tau float64, power int) *pattern.Pattern {
	at := a
	if tau > 0 {
		at = a.Threshold(tau)
	}
	p := pattern.FromCSR(at)
	if power > 1 {
		p = p.Power(power)
	}
	return p.Lower().WithDiagonal()
}

// computeRows evaluates G values on the given lower-triangular pattern by
// solving each local Frobenius system A(S_i,S_i) y = e_i exactly and scaling
// by 1/sqrt(y_i) so that diag(G A Gᵀ) = 1 (Kolotilina-Yeremin FSAI).
// The returned CSR shares the pattern's index structure.
func computeRows(a *sparse.CSR, p *pattern.Pattern, workers int, stats *SetupStats) (*sparse.CSR, error) {
	g := newPatternCSR(a, p)
	nw := workers
	if nw <= 0 {
		nw = parallel.MaxWorkers()
	}
	errs := make([]error, nw)
	partial := make([]SetupStats, nw)
	bounds := parallel.Chunks(a.Rows, nw)
	poolErr := parallel.ForErr(len(bounds)/2, nw, func(wlo, whi int) {
		for c := wlo; c < whi; c++ {
			lo, hi := bounds[2*c], bounds[2*c+1]
			ls := newLocalSystem(a.Cols)
			st := &partial[c]
			for i := lo; i < hi; i++ {
				idx := p.Row(i)
				m := len(idx)
				if m == 0 || idx[m-1] != i {
					errs[c] = setupErrf(ReasonMissingDiagonal, i, "row %d pattern lacks diagonal", i)
					return
				}
				if m > st.MaxLocal {
					st.MaxLocal = m
				}
				st.Rows++
				ls.load(a, idx)
				y, err := ls.solve()
				if err != nil {
					errs[c] = setupErrf(ReasonNotSPD, i, "row %d: %w", i, ErrNotSPD)
					return
				}
				fm := float64(m)
				st.DirectFlops += fm*fm*fm/3 + 2*fm*fm
				d := y[m-1]
				if d <= 0 || math.IsNaN(d) {
					errs[c] = setupErrf(ReasonNotSPD, i, "row %d diagonal %g: %w", i, d, ErrNotSPD)
					return
				}
				scale := 1 / math.Sqrt(d)
				off := g.RowPtr[i]
				for k := 0; k < m; k++ {
					g.Val[off+k] = y[k] * scale
				}
			}
		}
	})
	if poolErr != nil {
		// A panicking row task was contained by the pool; surface it as a
		// typed setup failure instead of crashing the process.
		return nil, setupErr(ReasonWorkerPanic, -1, poolErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if stats != nil {
		for _, st := range partial {
			stats.add(st)
		}
	}
	return g, nil
}

// precalcRows evaluates an *approximate* G on the given pattern using a few
// loose-tolerance CG sweeps per local system (Section 5). Only the order of
// magnitude of the entries matters — the result is used exclusively to
// decide which extension entries to keep. The CG runs on the sparse local
// lower triangle, bitwise reproducing a dense CG on A(S_i,S_i); a row task
// panic comes back as a typed ReasonWorkerPanic SetupError.
func precalcRows(a *sparse.CSR, p *pattern.Pattern, tol float64, maxIter, workers int, stats *SetupStats) (*sparse.CSR, error) {
	// The estimate only feeds filterExtension, so it shares p's index
	// arrays instead of copying them.
	g := &sparse.CSR{Rows: a.Rows, Cols: a.Rows, RowPtr: p.RowPtr, ColIdx: p.Cols, Val: make([]float64, p.NNZ())}
	nw := workers
	if nw <= 0 {
		nw = parallel.MaxWorkers()
	}
	partial := make([]SetupStats, nw)
	bounds := parallel.Chunks(a.Rows, nw)
	poolErr := parallel.ForErr(len(bounds)/2, nw, func(wlo, whi int) {
		for c := wlo; c < whi; c++ {
			lo, hi := bounds[2*c], bounds[2*c+1]
			ls := newLocalSystem(a.Cols)
			st := &partial[c]
			for i := lo; i < hi; i++ {
				idx := p.Row(i)
				m := len(idx)
				ls.load(a, idx)
				sol, iters := ls.precalc(tol, maxIter)
				// Priced by the perf model as dense CG work, not what the
				// sparse kernel executes (see SetupStats.PrecalcFlops).
				st.PrecalcFlops += float64(iters) * 2 * float64(m) * float64(m)
				off := g.RowPtr[i]
				copy(g.Val[off:off+m], sol)
			}
		}
	})
	if poolErr != nil {
		return nil, setupErr(ReasonWorkerPanic, -1, poolErr)
	}
	if stats != nil {
		for _, st := range partial {
			stats.add(st)
		}
	}
	return g, nil
}

// newPatternCSR returns a zero-valued n×n CSR with p's index structure.
func newPatternCSR(a *sparse.CSR, p *pattern.Pattern) *sparse.CSR {
	return &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Rows,
		RowPtr: append([]int(nil), p.RowPtr...),
		ColIdx: append([]int(nil), p.Cols...),
		Val:    make([]float64, p.NNZ()),
	}
}
