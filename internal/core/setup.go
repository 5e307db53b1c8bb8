package fsai

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/pattern"
	"repro/internal/prof"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// phaseRecorder times the setup phases of Compute: each phase lands in
// SetupStats.Phases and, when a tracer is configured, as a named span.
type phaseRecorder struct {
	tr    *telemetry.Tracer
	stats *SetupStats
}

// phase starts timing the named phase and returns the closer.
func (pr phaseRecorder) phase(name string) func() {
	span := pr.tr.StartSpan(name)
	start := time.Now()
	return func() {
		span.End()
		pr.stats.Phases = append(pr.stats.Phases, PhaseTiming{Name: name, NS: time.Since(start).Nanoseconds()})
	}
}

// Compute builds an FSAI-family preconditioner for the SPD matrix a
// according to opts. It is the entry point covering Algorithms 1, 2 and 4.
// With Options.Ctx set, the whole setup runs under the pprof label
// phase=setup merged into the context's labels (see internal/prof).
func Compute(a *sparse.CSR, opts Options) (*Preconditioner, error) {
	if opts.Ctx == nil {
		return compute(a, opts)
	}
	var (
		p   *Preconditioner
		err error
	)
	prof.WithPhase(opts.Ctx, prof.PhaseSetup, func(ctx context.Context) {
		o := opts
		o.Ctx = ctx
		p, err = compute(a, o)
	})
	return p, err
}

func compute(a *sparse.CSR, opts Options) (*Preconditioner, error) {
	if a.Rows != a.Cols {
		return nil, setupErrf(ReasonBadInput, -1, "matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	opts.normalize()
	elems := opts.LineBytes / 8
	if elems < 1 {
		return nil, setupErrf(ReasonBadInput, -1, "line size %dB smaller than one element", opts.LineBytes)
	}

	p := &Preconditioner{Workers: opts.Workers}
	rec := phaseRecorder{tr: opts.Tracer, stats: &p.Stats}
	root := opts.Tracer.StartSpan("fsai-setup:" + opts.Variant.String())
	root.SetAttr("variant", opts.Variant.String())
	root.SetAttr("rows", fmt.Sprint(a.Rows))
	root.SetAttr("nnz", fmt.Sprint(a.NNZ()))
	defer func() {
		if p.G != nil {
			root.SetAttr("nnz_g", fmt.Sprint(p.G.NNZ()))
		}
		root.End()
	}()

	endBase := rec.phase(PhaseBasePattern)
	base := InitialPattern(a, opts.ThresholdTau, opts.PatternPower)
	endBase()
	p.BasePattern = base
	p.Stats.PatternOps += float64(base.NNZ())

	switch opts.Variant {
	case VariantFSAI:
		endSolve := rec.phase(PhaseSolve)
		g, err := computeRows(a, base, opts.Workers, &p.Stats)
		endSolve()
		if err != nil {
			return nil, err
		}
		if opts.PostFilter > 0 {
			endFilter := rec.phase(PhasePostFilter)
			g = postFilterRescale(a, diagonalOnly(base), g, opts.PostFilter)
			endFilter()
		}
		p.G = g
		p.FinalPattern = pattern.FromCSR(g)

	case VariantSp, VariantFull:
		// Step 3: cache-friendly extension of S optimizing the Gp product.
		endExtend := rec.phase(PhaseExtend)
		sx := ExtendPattern(base, elems, opts.AlignElems, ClipLower, opts.MaxRowNNZ)
		endExtend()
		p.Stats.PatternOps += float64(sx.NNZ())
		sext, err := resolveExtension(a, base, sx, opts, rec)
		if err != nil {
			return nil, err
		}
		final := sext
		if opts.Variant == VariantFull {
			// Steps 5-6: repeat on the transposed pattern, optimizing the
			// Gᵀp product, then transpose back.
			endExtend := rec.phase(PhaseExtend)
			tx := ExtendPattern(sext.Transpose(), elems, opts.AlignElems, ClipUpper, opts.MaxRowNNZ)
			sx2 := tx.Transpose()
			endExtend()
			p.Stats.PatternOps += float64(sx2.NNZ())
			final, err = resolveExtension(a, sext, sx2, opts, rec)
			if err != nil {
				return nil, err
			}
		}
		if opts.MaxPatternNNZFactor > 0 {
			budget := opts.MaxPatternNNZFactor * float64(a.NNZ())
			if float64(final.NNZ()) > budget {
				return nil, setupErrf(ReasonPatternBlowup, -1,
					"extended pattern has %d entries, budget %.0f (%.3g × nnz(A)=%d)",
					final.NNZ(), budget, opts.MaxPatternNNZFactor, a.NNZ())
			}
		}
		// Step 7: compute the final G coefficients on the resulting pattern,
		// a Frobenius-minimal inverse approximation on that pattern.
		endSolve := rec.phase(PhaseSolve)
		g, err := computeRows(a, final, opts.Workers, &p.Stats)
		endSolve()
		if err != nil {
			return nil, err
		}
		if opts.StandardFiltering {
			// Table 3 comparison path: the extension is kept whole through
			// the exact solve and filtered after the fact with rescaling.
			// Only extension entries (positions outside the original
			// numerical pattern) are eligible for dropping, the same
			// eligible set the precalculation strategy filters.
			endFilter := rec.phase(PhasePostFilter)
			g = postFilterRescale(a, base, g, opts.Filter)
			endFilter()
		}
		p.G = g
		p.FinalPattern = pattern.FromCSR(g)

	default:
		return nil, setupErrf(ReasonBadInput, -1, "unknown variant %d", opts.Variant)
	}

	p.GT = p.G.Transpose()
	p.initApply()
	return p, nil
}

// resolveExtension turns a candidate extended pattern sx (⊇ base) into the
// final extension pattern according to the filtering strategy: the
// precalculation strategy of Section 5 (default) precalculates an
// approximate G on sx and drops weak extension entries *before* the exact
// solve; the standard strategy keeps sx whole here (filtering happens after
// the exact solve, in Compute).
func resolveExtension(a *sparse.CSR, base, sx *pattern.Pattern, opts Options, rec phaseRecorder) (*pattern.Pattern, error) {
	if opts.StandardFiltering {
		return sx, nil
	}
	if opts.Filter <= 0 {
		return sx, nil // filter 0.0 keeps the full extension
	}
	endPrecalc := rec.phase(PhasePrecalc)
	gpre, err := precalcRows(a, sx, opts.PrecalcTol, opts.PrecalcMaxIter, opts.Workers, rec.stats)
	endPrecalc()
	if err != nil {
		return nil, err
	}
	endFilter := rec.phase(PhaseFilter)
	filtered := filterExtension(base, sx, gpre, opts.Filter)
	endFilter()
	return filtered, nil
}

// ComputeOnPattern evaluates the Frobenius-optimal G of A on an arbitrary
// lower-triangular pattern p (diagonal included in every row), bypassing
// extension and filtering. It backs the randomly-extended control
// preconditioners of Figures 3-4 and is useful to compose the FSAI value
// computation with externally produced patterns (Section 8: the method
// applies to any given sparse pattern).
func ComputeOnPattern(a *sparse.CSR, p *pattern.Pattern, workers int, stats *SetupStats) (*sparse.CSR, error) {
	return computeRows(a, p, workers, stats)
}

// diagonalOnly returns the pattern containing just the diagonal positions of
// p's rows; used as the protected set when post-filtering a baseline FSAI.
func diagonalOnly(p *pattern.Pattern) *pattern.Pattern {
	out := pattern.New(p.Rows, p.NCols)
	for i := 0; i < p.Rows; i++ {
		if i < p.NCols {
			out.AppendCol(i)
		}
		out.CloseRow(i)
	}
	return out
}

// RandomExtendPattern extends base with extra randomly placed admissible
// entries (subject to clip), reproducing the G_random control of
// Figures 3-4: the same number of new entries as the cache-friendly
// extension, but scattered without regard for cache lines.
//
// The RNG makes placement deterministic per seed. If fewer than extra free
// admissible positions exist, all of them are added.
func RandomExtendPattern(base *pattern.Pattern, extra int, rng *rand.Rand, clip Clip) *pattern.Pattern {
	rows := make([][]int, base.Rows)
	for i := range rows {
		rows[i] = append([]int(nil), base.Row(i)...)
	}
	n := base.Rows
	added := 0
	attempts := 0
	maxAttempts := 50 * (extra + 1)
	for added < extra && attempts < maxAttempts {
		attempts++
		i := rng.Intn(n)
		var j int
		switch clip {
		case ClipLower:
			j = rng.Intn(i + 1)
		case ClipUpper:
			j = i + rng.Intn(base.NCols-i)
		default:
			j = rng.Intn(base.NCols)
		}
		if containsSorted(rows[i], j) {
			continue
		}
		rows[i] = insertSorted(rows[i], j)
		added++
	}
	return pattern.FromRows(base.Rows, base.NCols, rows)
}

func containsSorted(row []int, j int) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == j
}

func insertSorted(row []int, j int) []int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	row = append(row, 0)
	copy(row[lo+1:], row[lo:])
	row[lo] = j
	return row
}
