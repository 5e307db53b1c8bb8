// Package dense implements the small dense linear-algebra kernels the FSAI
// setup needs for the local Frobenius systems A(S_i,S_i) g = e: Cholesky and
// LDLᵀ factorizations with triangular solves (the paper's "direct solver",
// provided there by MKL/LAPACK/OpenBLAS). The loose-tolerance CG of the
// Section 5 precalculation works on sparse local systems and lives in
// internal/core.
//
// Matrices are stored column-major in a flat []float64 of length n*n;
// element (i,j) is a[j*n+i]. All systems here are symmetric positive
// definite restrictions of an SPD matrix, so Cholesky is the primary path
// and LDLᵀ is the fallback for near-singular cases.
package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not numerically positive definite.
var ErrNotSPD = errors.New("dense: matrix is not positive definite")

// Cholesky overwrites the lower triangle of the column-major n x n matrix a
// with its Cholesky factor L (a = L Lᵀ). The strict upper triangle is left
// untouched. It returns ErrNotSPD on a non-positive pivot.
func Cholesky(a []float64, n int) error {
	if len(a) < n*n {
		panic(fmt.Sprintf("dense: Cholesky buffer %d for n=%d", len(a), n))
	}
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			l := a[k*n+j]
			d -= l * l
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[j*n+i]
			for k := 0; k < j; k++ {
				s -= a[k*n+i] * a[k*n+j]
			}
			a[j*n+i] = s * inv
		}
	}
	return nil
}

// CholeskySolve solves (L Lᵀ) x = b in place on b, where a holds the
// Cholesky factor produced by Cholesky.
func CholeskySolve(a []float64, n int, b []float64) {
	// Forward solve L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[k*n+i] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
	// Backward solve Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[i*n+k] * b[k]
		}
		b[i] = s / a[i*n+i]
	}
}

// LDLT overwrites the lower triangle of a with the unit lower factor L and
// the diagonal with D of an LDLᵀ factorization (no pivoting; intended for
// symmetric quasi-definite fallback when Cholesky fails by a hair). It
// returns an error when a diagonal element of D underflows to zero.
func LDLT(a []float64, n int) error {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			l := a[k*n+j]
			d -= l * l * a[k*n+k]
		}
		if d == 0 || math.IsNaN(d) {
			return fmt.Errorf("dense: LDLT zero pivot at %d", j)
		}
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[j*n+i]
			for k := 0; k < j; k++ {
				s -= a[k*n+i] * a[k*n+k] * a[k*n+j]
			}
			a[j*n+i] = s / d
		}
	}
	return nil
}

// LDLTSolve solves (L D Lᵀ) x = b in place on b for factors from LDLT.
func LDLTSolve(a []float64, n int, b []float64) {
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[k*n+i] * b[k]
		}
		b[i] = s
	}
	for i := 0; i < n; i++ {
		b[i] /= a[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[i*n+k] * b[k]
		}
		b[i] = s
	}
}

// SolveSPD solves the symmetric positive definite system a x = b, where a is
// column-major n x n with at least its lower triangle filled. a is destroyed;
// the solution overwrites b. Cholesky is attempted first, then LDLᵀ on a
// fresh copy is used as fallback. It returns an error if both fail.
func SolveSPD(a []float64, n int, b []float64) error {
	backup := append([]float64(nil), a[:n*n]...)
	if err := Cholesky(a, n); err == nil {
		CholeskySolve(a, n, b)
		return nil
	}
	copy(a, backup)
	if err := LDLT(a, n); err != nil {
		return ErrNotSPD
	}
	LDLTSolve(a, n, b)
	return nil
}
