package krylov

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sparse"
)

// fsaiLike is a two-factor test preconditioner applying z = Gᵀ(G r) with
// the same engine kernel sequence the FSAI preconditioner uses, including
// the batched BlockPreconditioner path. It lets this package prove the
// block solver's bit-identity claims without importing internal/core.
type fsaiLike struct {
	g, gt *sparse.CSR
	eng   *kernels.Engine
	w     int
	tmp   []float64
	btmp  []float64
}

func newFsaiLike(n, w int) *fsaiLike {
	g := tridiag(n, -0.2, 1, 0)
	f := &fsaiLike{g: g, gt: g.Transpose(), w: w, tmp: make([]float64, n)}
	if w > 1 {
		f.eng = kernels.New(n, w)
	}
	return f
}

func (f *fsaiLike) Apply(z, r []float64) {
	if f.w == 1 {
		f.g.MulVec(f.tmp, r)
		f.gt.MulVec(z, f.tmp)
		return
	}
	f.eng.SpMV(f.g, f.tmp, r)
	f.eng.SpMV(f.gt, z, f.tmp)
}

func (f *fsaiLike) ApplyBlock(z, r []float64, k int) {
	if k == 1 {
		f.Apply(z, r)
		return
	}
	if len(f.btmp) != f.g.Rows*k {
		f.btmp = make([]float64, f.g.Rows*k)
	}
	if f.w == 1 {
		f.g.MulMat(f.btmp, r, k)
		f.gt.MulMat(z, f.btmp, k)
		return
	}
	f.eng.SpMM(f.g, f.btmp, r, k)
	f.eng.SpMM(f.gt, z, f.btmp, k)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// refPCG is the scalar PCG reference: one right-hand side's Section 2.1
// recurrence as a straight sequence of engine kernel calls, without
// telemetry, cancellation or checkpoints, always recording the history.
// Solve and k = 1 SolveBlock must reproduce it bit for bit, which pins the
// scalar outputs (iterates, iteration counts, residuals) in place.
func refPCG(a *sparse.CSR, x, b []float64, m Preconditioner, tol float64, maxIter, workers int) Result {
	n := a.Rows
	if m == nil {
		m = Identity{}
	}
	eng := kernels.New(n, workers)
	r := append([]float64(nil), b...)
	z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	res := Result{RelResidual: 1}
	done := func(st Status, rel float64) Result {
		res.Status, res.Converged, res.RelResidual = st, st == StatusConverged, rel
		res.History = append(res.History, rel)
		return res
	}
	Fill(x, 0)
	bnorm := eng.Norm2(b)
	if bnorm == 0 {
		return Result{Status: StatusConverged, Converged: true}
	}
	rel := eng.Norm2(r) / bnorm
	if bad(rel) {
		return done(StatusNaNOrInf, rel)
	}
	if rel <= tol {
		return done(StatusConverged, rel)
	}
	res.History = append(res.History, rel)
	m.Apply(z, r)
	copy(p, z)
	rz := eng.Dot(r, z)
	for it := 0; it < maxIter; it++ {
		eng.SpMV(a, ap, p)
		pap := eng.Dot(p, ap)
		if pap <= 0 || bad(pap) {
			st := StatusIndefinite
			if bad(pap) {
				st = StatusNaNOrInf
			}
			return done(st, eng.Norm2(r)/bnorm)
		}
		rr := eng.XRUpdate(rz/pap, p, ap, x, r)
		res.Iterations = it + 1
		rel = math.Sqrt(rr) / bnorm
		switch {
		case bad(rel):
			return done(StatusNaNOrInf, rel)
		case rel <= tol:
			return done(StatusConverged, rel)
		}
		res.History = append(res.History, rel)
		m.Apply(z, r)
		rzNew := eng.Dot(r, z)
		eng.Xpay(z, rzNew/rz, p)
		rz = rzNew
	}
	res.Status, res.RelResidual = StatusMaxIter, rel
	return res
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// sameResult fails t unless got matches the reference bit for bit:
// status, iterations, residual, history and solution.
func sameResult(t *testing.T, what string, ref, got Result, xref, x []float64) {
	t.Helper()
	if got.Status != ref.Status || got.Iterations != ref.Iterations || got.RelResidual != ref.RelResidual {
		t.Fatalf("%s: result mismatch reference=%+v got=%+v", what, ref, got)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: history length %d != %d", what, len(got.History), len(ref.History))
	}
	for i := range ref.History {
		if got.History[i] != ref.History[i] {
			t.Fatalf("%s: history[%d] %v != %v", what, i, got.History[i], ref.History[i])
		}
	}
	for i := range xref {
		if x[i] != xref[i] {
			t.Fatalf("%s: x[%d] %v != %v (not bit-identical)", what, i, x[i], xref[i])
		}
	}
}

// TestSolveBlockK1BitIdentical pins the one loop to the scalar reference:
// Solve, and SolveBlock with k = 1 in both recurrence modes, execute the
// exact kernel sequence of refPCG for every preconditioner kind and worker
// count — results, histories and iteration counts match bit for bit.
func TestSolveBlockK1BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{300, 1200} {
		a := tridiag(n, -1, 2.5, -1)
		b := randVec(rng, n)
		for _, w := range []int{1, 3} {
			for pi, m := range []Preconditioner{nil, NewJacobi(a), newFsaiLike(n, w)} {
				xr := make([]float64, n)
				ref := refPCG(a, xr, b, m, 1e-10, 500, w)
				if !ref.Converged {
					t.Fatalf("n=%d w=%d precond=%d: reference did not converge: %+v", n, w, pi, ref)
				}
				xs := make([]float64, n)
				rs := Solve(a, xs, b, m, Options{Tol: 1e-10, MaxIter: 500, Workers: w, RecordHistory: true})
				sameResult(t, fmt.Sprintf("Solve n=%d w=%d precond=%d", n, w, pi), ref, rs, xr, xs)
				for _, coupled := range []bool{false, true} {
					xb := make([]float64, n)
					rb := SolveBlock(a, xb, b, 1, m, BlockOptions{
						Tol: 1e-10, MaxIter: 500, Workers: w, RecordHistory: true, Coupled: coupled,
					})
					sameResult(t, fmt.Sprintf("SolveBlock n=%d w=%d coupled=%v precond=%d", n, w, coupled, pi),
						ref, rb.Columns[0], xr, xb)
				}
			}
		}
	}
}

// TestSolveMatchesReferenceOnBreakdown: the terminal paths match the
// reference too — an indefinite operator and a NaN-poisoning
// preconditioner end with the reference's status, iterate and history.
func TestSolveMatchesReferenceOnBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 80
	b := randVec(rng, n)
	cases := []struct {
		a *sparse.CSR
		m func() Preconditioner
	}{
		{tridiag(n, -1, 0.5, -1), func() Preconditioner { return nil }},
		{tridiag(n, -1, 2, -1), func() Preconditioner { return &nanPrecond{from: 4} }},
	}
	for i, tc := range cases {
		xr := make([]float64, n)
		ref := refPCG(tc.a, xr, b, tc.m(), 1e-10, 500, 1)
		if !ref.Status.Breakdown() {
			t.Fatalf("case %d: reference status %v, want a breakdown", i, ref.Status)
		}
		xs := make([]float64, n)
		rs := Solve(tc.a, xs, b, tc.m(), Options{Tol: 1e-10, MaxIter: 500, Workers: 1, RecordHistory: true})
		sameResult(t, fmt.Sprintf("case %d", i), ref, rs, xr, xs)
	}
}

// TestSolveBlockBreakdownProgress: when every column breaks down, the
// block's last ProgressDetail snapshot reports the breakdown (as the k = 1
// Solve does), never a converged solve.
func TestSolveBlockBreakdownProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 50
	a := tridiag(n, -1, -2.5, -1) // negative definite: pᵀAp < 0 at once
	const k = 2
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	var lastBlock, lastScalar ProgressInfo
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, BlockOptions{Tol: 1e-8, MaxIter: 100, Workers: 1,
		ProgressDetail: func(pi ProgressInfo) { lastBlock = pi }})
	Solve(a, make([]float64, n), b[:n], nil, Options{Tol: 1e-8, MaxIter: 100, Workers: 1,
		ProgressDetail: func(pi ProgressInfo) { lastScalar = pi }})
	for j, c := range br.Columns {
		if c.Status != StatusIndefinite {
			t.Fatalf("col %d: status %v, want indefinite-curvature", j, c.Status)
		}
	}
	if lastScalar.Converged || lastScalar.Status != StatusIndefinite {
		t.Fatalf("scalar last snapshot %+v, want indefinite-curvature", lastScalar)
	}
	if lastBlock.Converged || lastBlock.Status != lastScalar.Status || lastBlock.Iteration != lastScalar.Iteration {
		t.Fatalf("block last snapshot %+v, want %+v", lastBlock, lastScalar)
	}
}

// TestSolveBlockColumnsBitIdenticalToScalar is the invariant the service
// batcher depends on: in the default decoupled mode, every column of a
// k-wide block solve is bit-identical to the unbatched scalar solve of
// that column — including on the pooled kernel path and with columns that
// converge at different iterations (deflation).
func TestSolveBlockColumnsBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 40000
	if kernels.ParallelMinLen() > n {
		t.Fatalf("test needs n above the pooled threshold")
	}
	a := tridiag(n, -1, 2.5, -1)
	const k = 5
	w := 4
	m := newFsaiLike(n, w)
	b := make([]float64, n*k)
	copy(b[:n], randVec(rng, n))
	// Column 1 converges immediately-ish (a near-eigenvector scale), the
	// rest are generic — forcing deflation while others keep iterating.
	for i := 0; i < n; i++ {
		b[n+i] = 1e-3
	}
	copy(b[2*n:3*n], randVec(rng, n))
	copy(b[3*n:4*n], randVec(rng, n))
	for i := 0; i < n; i++ {
		b[4*n+i] = float64(i%17) - 8
	}

	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, m, BlockOptions{Tol: 1e-8, MaxIter: 300, Workers: w})
	if !br.AllConverged {
		t.Fatalf("block solve did not converge: %+v", br.Columns)
	}
	iters := map[int]bool{}
	for j := 0; j < k; j++ {
		xs := make([]float64, n)
		rs := Solve(a, xs, b[j*n:(j+1)*n], m, Options{Tol: 1e-8, MaxIter: 300, Workers: w})
		c := br.Columns[j]
		if c.Iterations != rs.Iterations || c.Status != rs.Status || c.RelResidual != rs.RelResidual {
			t.Fatalf("col %d: scalar {it=%d st=%v rel=%v} block {it=%d st=%v rel=%v}",
				j, rs.Iterations, rs.Status, rs.RelResidual, c.Iterations, c.Status, c.RelResidual)
		}
		iters[c.Iterations] = true
		for i := 0; i < n; i++ {
			if x[j*n+i] != xs[i] {
				t.Fatalf("col %d x[%d]: block %v != scalar %v (not bit-identical)", j, i, x[j*n+i], xs[i])
			}
		}
	}
	if len(iters) < 2 {
		t.Fatalf("expected columns to deflate at different iterations, all at %v", br.Columns[0].Iterations)
	}
}

// TestSolveBlockCoupled checks the O'Leary mode: all columns converge to
// the scalar solutions (within tolerance — the coupled recurrence is not
// bit-comparable) and typically in no more iterations than scalar CG.
func TestSolveBlockCoupled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 600
	a := tridiag(n, -1, 2.2, -1)
	const k = 4
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	m := NewJacobi(a)
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, m, BlockOptions{Tol: 1e-9, MaxIter: 2000, Workers: 1, Coupled: true})
	if !br.AllConverged {
		t.Fatalf("coupled block solve did not converge: %+v", br.Columns)
	}
	for j := 0; j < k; j++ {
		xs := make([]float64, n)
		rs := Solve(a, xs, b[j*n:(j+1)*n], m, Options{Tol: 1e-9, MaxIter: 2000, Workers: 1})
		if br.Columns[j].Iterations > rs.Iterations {
			t.Logf("col %d: coupled took %d iters vs scalar %d", j, br.Columns[j].Iterations, rs.Iterations)
		}
		var diff, norm float64
		for i := 0; i < n; i++ {
			d := x[j*n+i] - xs[i]
			diff += d * d
			norm += xs[i] * xs[i]
		}
		if math.Sqrt(diff) > 1e-6*math.Sqrt(norm) {
			t.Fatalf("col %d: coupled solution differs from scalar by %v (rel)", j, math.Sqrt(diff/norm))
		}
	}
}

// TestSolveBlockColumnCancel: a column whose context is already expired
// deflates out with StatusCancelled and a resumable checkpoint; the others
// converge normally — an expired deadline does not poison the batch.
func TestSolveBlockColumnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 500
	a := tridiag(n, -1, 2.5, -1)
	const k = 3
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, NewJacobi(a), BlockOptions{
		Tol: 1e-8, MaxIter: 1000, Workers: 1, CancelCheckEvery: 1,
		ColumnCtx: []context.Context{nil, cancelled, nil},
	})
	if br.Columns[1].Status != StatusCancelled {
		t.Fatalf("cancelled column status: %v", br.Columns[1].Status)
	}
	if br.Columns[1].Checkpoint == nil {
		t.Fatalf("cancelled column carries no checkpoint")
	}
	if br.Columns[0].Status != StatusConverged || br.Columns[2].Status != StatusConverged {
		t.Fatalf("surviving columns: %v / %v", br.Columns[0].Status, br.Columns[2].Status)
	}
	if br.AllConverged {
		t.Fatalf("AllConverged must be false with a cancelled column")
	}
}

// TestSolveBlockBreakdown: an indefinite operator trips the per-column
// curvature guard (decoupled) and the Cholesky pivot guard (coupled), with
// warm checkpoints on every broken column.
func TestSolveBlockBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 200
	a := tridiag(n, -1, 0.5, -1) // indefinite
	const k = 2
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	for _, coupled := range []bool{false, true} {
		x := make([]float64, n*k)
		br := SolveBlock(a, x, b, k, nil, BlockOptions{Tol: 1e-10, MaxIter: 500, Workers: 1, Coupled: coupled})
		for j := 0; j < k; j++ {
			st := br.Columns[j].Status
			if st != StatusIndefinite && st != StatusNaNOrInf {
				t.Fatalf("coupled=%v col %d: status %v, want a breakdown", coupled, j, st)
			}
			if !st.Breakdown() {
				t.Fatalf("status %v not classified as breakdown", st)
			}
			if br.Columns[j].Checkpoint == nil {
				t.Fatalf("coupled=%v col %d: broken column carries no checkpoint", coupled, j)
			}
		}
	}
}

// TestSolveBlockZeroColumn: a zero right-hand side converges immediately
// with a zero solution, without occupying a slot in the active block.
func TestSolveBlockZeroColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 300
	a := tridiag(n, -1, 2.5, -1)
	const k = 2
	b := make([]float64, n*k)
	copy(b[n:], randVec(rng, n))
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, BlockOptions{Tol: 1e-8, MaxIter: 500, Workers: 1})
	if !br.Columns[0].Converged || br.Columns[0].RelResidual != 0 || br.Columns[0].Iterations != 0 {
		t.Fatalf("zero column: %+v", br.Columns[0])
	}
	for i := 0; i < n; i++ {
		if x[i] != 0 {
			t.Fatalf("zero column solution x[%d]=%v", i, x[i])
		}
	}
	if !br.Columns[1].Converged {
		t.Fatalf("nonzero column did not converge: %+v", br.Columns[1])
	}
}

// TestSolveBlockGlobalCancel: cancelling the block context ends every
// remaining column with StatusCancelled and resumable checkpoints.
func TestSolveBlockGlobalCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 400
	a := tridiag(n, -1, 2.01, -1)
	const k = 2
	b := make([]float64, n*k)
	for j := 0; j < k; j++ {
		copy(b[j*n:(j+1)*n], randVec(rng, n))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, n*k)
	br := SolveBlock(a, x, b, k, nil, BlockOptions{
		Tol: 1e-12, MaxIter: 10000, Workers: 1, Ctx: ctx, CancelCheckEvery: 1,
	})
	for j := 0; j < k; j++ {
		if br.Columns[j].Status != StatusCancelled {
			t.Fatalf("col %d: %v", j, br.Columns[j].Status)
		}
		if br.Columns[j].Checkpoint == nil {
			t.Fatalf("col %d: no checkpoint", j)
		}
	}
}
