package fsai

import (
	"math"
	"runtime"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// localSystem is one worker's scratch for the local Frobenius systems
// A(Sᵢ,Sᵢ) of the set-up. A scatter map from global columns to local
// indices, set for one row's pattern and reset after it, yields the local
// system's strict lower triangle row by row in O(Σ row length) instead of
// an O(m²) dense merge. Entry (r,c), c < r, comes from A's row idx[r]: the
// larger-index row, exactly as sparse.CSR.Extract fills the lower triangle.
// Every buffer is reused across rows, so steady-state rows allocate nothing.
type localSystem struct {
	pos  []int32 // global column → local index, -1 outside the current row's pattern
	ptr  []int32 // local row r's strict lower entries are col/val[ptr[r]:ptr[r+1]]
	col  []int32
	val  []float64
	diag []float64

	lower       []float64 // column-major m×m; only the lower triangle is filled
	x, r, p, ap []float64 // precalc CG vectors; x doubles as the exact solve's RHS
	m           int
	loads       int // systems loaded so far, for the yieldEvery cadence
}

// yieldEvery is how many local systems a worker loads between
// runtime.Gosched calls. The row loops allocate nothing, so they give the
// scheduler no GC-driven switch point: without a yield, a set-up running
// beside latency-sensitive work (the fsaid daemon's warm solves) keeps its
// Ps until the runtime's 10 ms forced preemption, and warm requests queue
// behind it (measured: +10% warm p50/p90 on the benchmark's service-mix
// workload). At ~0.2 µs a yield costs well under 1% of set-up.
const yieldEvery = 32

func newLocalSystem(n int) *localSystem {
	pos := make([]int32, n)
	for k := range pos {
		pos[k] = -1
	}
	return &localSystem{pos: pos}
}

// load gathers A(idx,idx) for the sorted pattern row idx: the strict lower
// triangle into ptr/col/val (ascending local columns) and the diagonal into
// diag (0 where A stores none).
func (ls *localSystem) load(a *sparse.CSR, idx []int) {
	if ls.loads++; ls.loads%yieldEvery == 0 {
		runtime.Gosched()
	}
	m := len(idx)
	ls.m = m
	for k, c := range idx {
		ls.pos[c] = int32(k)
	}
	if cap(ls.diag) < m {
		ls.diag = make([]float64, m)
		ls.ptr = make([]int32, m+1)
		ls.x = make([]float64, m)
		ls.r = make([]float64, m)
		ls.p = make([]float64, m)
		ls.ap = make([]float64, m)
	}
	ls.diag = ls.diag[:m]
	ls.ptr = ls.ptr[:m+1]
	pos, col, val := ls.pos, ls.col[:0], ls.val[:0]
	for r, gi := range idx {
		ls.ptr[r] = int32(len(col))
		d := 0.0
		for k := a.RowPtr[gi]; k < a.RowPtr[gi+1]; k++ {
			j := a.ColIdx[k]
			if j >= gi {
				if j == gi {
					d = a.Val[k]
				}
				break
			}
			if c := pos[j]; c >= 0 {
				col = append(col, c)
				val = append(val, a.Val[k])
			}
		}
		ls.diag[r] = d
	}
	ls.col, ls.val = col, val
	ls.ptr[m] = int32(len(ls.col))
	for _, c := range idx {
		ls.pos[c] = -1
	}
}

// symMulVec computes y = A_loc x from the stored lower triangle. Each y_i is
// summed from +0 in ascending column order — the order of a column-major
// dense symmetric product over the zero-filled lower triangle — skipping
// only the exact-zero terms, so the result is bitwise the dense one.
func (ls *localSystem) symMulVec(y, x []float64) {
	m := ls.m
	ptr, col, val, diag := ls.ptr[:m+1], ls.col, ls.val, ls.diag[:m]
	x, y = x[:m], y[:m]
	for i := 0; i < m; i++ {
		xi := x[i]
		s := 0.0
		for k := ptr[i]; k < ptr[i+1]; k++ {
			j := col[k]
			v := val[k]
			s += v * x[j]
			y[j] += v * xi
		}
		s += diag[i] * xi
		y[i] = s
	}
}

// precalc runs the loose-tolerance CG of Section 5 on the loaded system with
// right-hand side e_{m-1}, from a zero guess, until the relative residual
// drops to tol or maxIter iterations elapse. It returns the approximate
// solution (valid until the next load) and the iterations run.
func (ls *localSystem) precalc(tol float64, maxIter int) ([]float64, int) {
	m := ls.m
	x, r, p, ap := ls.x[:m], ls.r[:m], ls.p[:m], ls.ap[:m]
	for i := range x {
		x[i], r[i], p[i] = 0, 0, 0
	}
	r[m-1], p[m-1] = 1, 1
	rr := 1.0 // ‖e_{m-1}‖² = 1, so the relative residual is √rr
	iters := 0
	for it := 0; it < maxIter; it++ {
		if math.Sqrt(rr) <= tol {
			break
		}
		ls.symMulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 {
			break // loss of positive definiteness in finite precision
		}
		alpha := rr / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		iters = it + 1
	}
	return x, iters
}

// solve solves the loaded system exactly for right-hand side e_{m-1} by
// Cholesky, falling back to LDLᵀ on a re-filled copy when Cholesky meets a
// non-positive pivot. It returns the solution (valid until the next load).
func (ls *localSystem) solve() ([]float64, error) {
	m := ls.m
	if cap(ls.lower) < m*m {
		ls.lower = make([]float64, m*m)
	}
	a := ls.lower[:m*m]
	b := ls.x[:m]
	for i := range b {
		b[i] = 0
	}
	b[m-1] = 1
	ls.fillLower(a)
	if dense.Cholesky(a, m) == nil {
		dense.CholeskySolve(a, m, b)
		return b, nil
	}
	ls.fillLower(a)
	if dense.LDLT(a, m) != nil {
		return nil, ErrNotSPD
	}
	dense.LDLTSolve(a, m, b)
	return b, nil
}

// fillLower writes the loaded system's lower triangle, diagonal included,
// into the column-major m×m buffer a: the part Cholesky and LDLT read.
func (ls *localSystem) fillLower(a []float64) {
	m := ls.m
	for c := 0; c < m; c++ {
		clear(a[c*m+c : c*m+m])
	}
	for r := 0; r < m; r++ {
		a[r*m+r] = ls.diag[r]
		for k := ls.ptr[r]; k < ls.ptr[r+1]; k++ {
			a[int(ls.col[k])*m+r] = ls.val[k]
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
