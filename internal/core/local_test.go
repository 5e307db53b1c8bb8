package fsai

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/matgen"
	"repro/internal/pattern"
	"repro/internal/sparse"
)

// The reference below solves every local system densely: A(S_i,S_i) copied
// into a zero-filled m×m buffer by sparse.CSR.Extract, a dense CG for the
// precalculation and dense.SolveSPD for the exact solve. The sparse kernels
// must reproduce its arithmetic bit for bit.

func refSymMulVec(a []float64, n int, y, x []float64) {
	for i := range y[:n] {
		y[i] = 0
	}
	for j := 0; j < n; j++ {
		xj := x[j]
		y[j] += a[j*n+j] * xj
		for i := j + 1; i < n; i++ {
			v := a[j*n+i]
			y[i] += v * xj
			y[j] += v * x[i]
		}
	}
}

func refCG(a []float64, n int, x, b []float64, tol float64, maxIter int) int {
	for i := range x[:n] {
		x[i] = 0
	}
	r := append([]float64(nil), b[:n]...)
	p := append([]float64(nil), r...)
	ap := make([]float64, n)
	bnorm := math.Sqrt(dot(b[:n], b[:n]))
	if bnorm == 0 {
		return 0
	}
	rr := dot(r, r)
	iters := 0
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr)/bnorm <= tol {
			break
		}
		refSymMulVec(a, n, ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		iters = it + 1
	}
	return iters
}

func refPrecalcRows(a *sparse.CSR, p *pattern.Pattern, tol float64, maxIter int) (*sparse.CSR, float64) {
	g := newPatternCSR(a, p)
	flops := 0.0
	for i := 0; i < a.Rows; i++ {
		idx := p.Row(i)
		m := len(idx)
		aloc := a.Extract(idx, nil)
		rhs := make([]float64, m)
		sol := make([]float64, m)
		sparse.GatherRHS(rhs, m-1)
		iters := refCG(aloc, m, sol, rhs, tol, maxIter)
		flops += float64(iters) * 2 * float64(m) * float64(m)
		copy(g.Val[g.RowPtr[i]:], sol)
	}
	return g, flops
}

func refComputeRows(t *testing.T, a *sparse.CSR, p *pattern.Pattern) *sparse.CSR {
	t.Helper()
	g := newPatternCSR(a, p)
	for i := 0; i < a.Rows; i++ {
		idx := p.Row(i)
		m := len(idx)
		aloc := a.Extract(idx, nil)
		rhs := make([]float64, m)
		sparse.GatherRHS(rhs, m-1)
		if err := dense.SolveSPD(aloc, m, rhs); err != nil {
			t.Fatalf("reference solve row %d: %v", i, err)
		}
		scale := 1 / math.Sqrt(rhs[m-1])
		for k := range rhs {
			g.Val[g.RowPtr[i]+k] = rhs[k] * scale
		}
	}
	return g
}

// refPass is one precalculation pass of the reference pipeline: the
// candidate pattern, its reference precalc values and dense-model flops,
// and the filtered pattern the pass hands on.
type refPass struct {
	sx, filtered *pattern.Pattern
	gpre         *sparse.CSR
	flops        float64
}

// refPasses mirrors compute's FSAIE(full) precalculation pipeline on the
// reference kernels. FSAIE(sp) stops after the first pass.
func refPasses(a *sparse.CSR, opts Options) (*pattern.Pattern, []refPass) {
	opts.normalize()
	elems := opts.LineBytes / 8
	base := InitialPattern(a, opts.ThresholdTau, opts.PatternPower)
	pass := func(prev, sx *pattern.Pattern) refPass {
		gp, f := refPrecalcRows(a, sx, opts.PrecalcTol, opts.PrecalcMaxIter)
		return refPass{sx: sx, filtered: filterExtension(prev, sx, gp, opts.Filter), gpre: gp, flops: f}
	}
	p1 := pass(base, ExtendPattern(base, elems, opts.AlignElems, ClipLower, opts.MaxRowNNZ))
	tx := ExtendPattern(p1.filtered.Transpose(), elems, opts.AlignElems, ClipUpper, opts.MaxRowNNZ)
	return base, []refPass{p1, pass(p1.filtered, tx.Transpose())}
}

func sameBits(x, y *sparse.CSR) bool {
	if x.Rows != y.Rows || len(x.Val) != len(y.Val) {
		return false
	}
	for k := range x.RowPtr {
		if x.RowPtr[k] != y.RowPtr[k] {
			return false
		}
	}
	for k := range x.Val {
		if x.ColIdx[k] != y.ColIdx[k] || math.Float64bits(x.Val[k]) != math.Float64bits(y.Val[k]) {
			return false
		}
	}
	return true
}

// perturbUpper returns a copy of a whose strictly upper stored entries are
// scaled by up to ±0.3%: A(i,j) ≠ A(j,i), so a kernel that took a local
// entry from the smaller-index row would read different values.
func perturbUpper(a *sparse.CSR) *sparse.CSR {
	b := a.Clone()
	for i := 0; i < b.Rows; i++ {
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			if b.ColIdx[k] > i {
				b.Val[k] *= 1 + 1e-3*float64(k%7-3)
			}
		}
	}
	return b
}

// TestSparseLocalSystemsBitIdentical pins the scatter-map kernels to the
// dense reference: bitwise-equal precalc values on every candidate pattern,
// the same dense-model PrecalcFlops, and bitwise-equal final G and GT from
// Compute, for FSAI, FSAIE(sp) and FSAIE(full), 1 and 2 workers, 64- and
// 256-byte lines, on every QuickSuite matrix plus one asymmetric one.
func TestSparseLocalSystemsBitIdentical(t *testing.T) {
	type mat struct {
		name string
		a    *sparse.CSR
	}
	var mats []mat
	for _, s := range matgen.QuickSuite() {
		mats = append(mats, mat{s.Name, s.Generate()})
	}
	asym := perturbUpper(matgen.Laplace2D(24, 24))
	mats = append(mats, mat{"lap24x24-asym", asym})

	for _, mt := range mats {
		for _, line := range []int{64, 256} {
			opts := DefaultOptions()
			opts.LineBytes = line
			base, passes := refPasses(mt.a, opts)
			// FSAI has no precalculation, FSAIE(sp) the first pass,
			// FSAIE(full) both.
			for _, c := range []struct {
				v      Variant
				passes int
			}{{VariantFSAI, 0}, {VariantSp, 1}, {VariantFull, 2}} {
				v, vp := c.v, passes[:c.passes]
				if v == VariantFSAI && line != 64 {
					continue // the baseline ignores the line size
				}
				final := base
				if len(vp) > 0 {
					final = vp[len(vp)-1].filtered
				}
				refG := refComputeRows(t, mt.a, final)
				opts.Variant = v
				for _, w := range []int{1, 2} {
					opts.Workers = w
					norm := opts
					norm.normalize()
					var st SetupStats
					refFlops := 0.0
					for k, rp := range vp {
						got, err := precalcRows(mt.a, rp.sx, norm.PrecalcTol, norm.PrecalcMaxIter, w, &st)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, rp.gpre) {
							t.Errorf("%s %v %dB %dw: precalc pass %d differs from the dense reference", mt.name, v, line, w, k)
						}
						refFlops += rp.flops
					}
					if st.PrecalcFlops != refFlops {
						t.Errorf("%s %v %dB %dw: PrecalcFlops %g, dense model %g", mt.name, v, line, w, st.PrecalcFlops, refFlops)
					}
					p, err := Compute(mt.a, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(p.G, refG) || !sameBits(p.GT, refG.Transpose()) {
						t.Errorf("%s %v %dB %dw: G/GT differ from the dense reference", mt.name, v, line, w)
					}
				}
			}
		}
	}

	// The asymmetry must reach the factor, or the asymmetric case pins
	// nothing: the transposed matrix (lower and upper values swapped) gives
	// a different G.
	opts := DefaultOptions()
	p1, err1 := Compute(asym, opts)
	p2, err2 := Compute(asym.Transpose(), opts)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if sameBits(p1.G, p2.G) {
		t.Error("perturbed upper triangle did not change G; the asymmetric case is vacuous")
	}
}

// randSPDCSR builds a random full SPD matrix B + Bᵀ + (n+1)·I in CSR and
// loads all of it as one local system.
func randSPDCSR(rng *rand.Rand, n int) (*sparse.CSR, *localSystem) {
	b := sparse.NewCOO(n, n, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(n) + 1
			}
			b.Add(i, j, v)
			if i != j {
				b.Add(j, i, v)
			}
		}
	}
	a := b.ToCSR()
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	ls := newLocalSystem(n)
	ls.load(a, idx)
	return a, ls
}

func TestLocalSymMulVec(t *testing.T) {
	// [2 1; 1 3] · [1, 2] = [4, 7]
	b := sparse.NewCOO(2, 2, 4)
	b.Add(0, 0, 2)
	b.Add(0, 1, 99) // upper triangle: ignored
	b.Add(1, 0, 1)
	b.Add(1, 1, 3)
	ls := newLocalSystem(2)
	ls.load(b.ToCSR(), []int{0, 1})
	y := make([]float64, 2)
	ls.symMulVec(y, []float64{1, 2})
	if y[0] != 4 || y[1] != 7 {
		t.Errorf("symMulVec = %v", y)
	}
}

func TestPrecalcConvergesOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 30
	a, ls := randSPDCSR(rng, n)
	x, iters := ls.precalc(1e-12, 10*n)
	if iters == 0 || iters == 10*n {
		t.Fatalf("CG ran %d iterations", iters)
	}
	// A x must reproduce e_{n-1}.
	ax := make([]float64, n)
	a.MulVec(ax, x)
	for i, v := range ax {
		want := 0.0
		if i == n-1 {
			want = 1
		}
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("(Ax)[%d]=%g want %g", i, v, want)
		}
	}
}

func TestPrecalcLooseToleranceGivesMagnitudes(t *testing.T) {
	// The precalculation use case: a handful of iterations at tol 0.1 must
	// already rank entries by order of magnitude.
	rng := rand.New(rand.NewSource(5))
	n := 20
	_, ls := randSPDCSR(rng, n)
	exact, err := ls.solve()
	if err != nil {
		t.Fatal(err)
	}
	exact = append([]float64(nil), exact...)
	approx, iters := ls.precalc(0.1, 10)
	if iters == 0 {
		t.Fatal("no iterations ran")
	}
	argmax := func(v []float64) int {
		k := 0
		for i := range v {
			if math.Abs(v[i]) > math.Abs(v[k]) {
				k = i
			}
		}
		return k
	}
	if e, g := argmax(exact), argmax(approx); e != g {
		t.Errorf("dominant entry mismatch: exact %d approx %d", e, g)
	}
}
