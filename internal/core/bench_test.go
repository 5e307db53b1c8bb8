package fsai

import (
	"testing"

	"repro/internal/krylov"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

func benchSetup(b *testing.B, variant Variant, lineBytes int) {
	a := matgen.Laplace2D(48, 48)
	opts := DefaultOptions()
	opts.Variant = variant
	opts.LineBytes = lineBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetupFSAI(b *testing.B)         { benchSetup(b, VariantFSAI, 64) }
func BenchmarkSetupFSAIESp(b *testing.B)      { benchSetup(b, VariantSp, 64) }
func BenchmarkSetupFSAIEFull(b *testing.B)    { benchSetup(b, VariantFull, 64) }
func BenchmarkSetupFSAIEFull256(b *testing.B) { benchSetup(b, VariantFull, 256) }

// BenchmarkSetupQuickSuite times one FSAIE(full) set-up, 1 worker, of every
// QuickSuite matrix per op: the set-up layer's in-repo number (make
// bench-smoke). The matrices are generated once, outside the timer.
func BenchmarkSetupQuickSuite(b *testing.B) {
	var mats []*sparse.CSR
	for _, s := range matgen.QuickSuite() {
		mats = append(mats, s.Generate())
	}
	opts := DefaultOptions()
	opts.Variant = VariantFull
	opts.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range mats {
			if _, err := Compute(a, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExtendPattern(b *testing.B) {
	a := matgen.Laplace2D(64, 64)
	base := InitialPattern(a, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ExtendPattern(base, 8, 0, ClipLower, 0)
	}
	b.ReportMetric(float64(base.NNZ()), "base_nnz")
}

func BenchmarkPrecondApply(b *testing.B) {
	a := matgen.Laplace2D(64, 64)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(z, r)
	}
	b.SetBytes(int64(2 * p.NNZ() * 12))
}

func BenchmarkPCGSolve(b *testing.B) {
	a := matgen.Laplace2D(48, 48)
	p, err := Compute(a, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := krylov.Solve(a, x, rhs, p, krylov.DefaultOptions())
		if !res.Converged {
			b.Fatal("no convergence")
		}
	}
}
