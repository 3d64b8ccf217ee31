// Package lu implements single-node LU decomposition with partial pivoting
// (Algorithm 1 of the HPDC 2014 paper), triangular-matrix inversion
// (Equation 4), and full matrix inversion via A^-1 = U^-1 L^-1 P.
//
// This is the kernel the MapReduce pipeline runs on the master node for
// submatrices of order <= nb (the "bound value", 3200 in the paper's
// experiments), and it also serves as the ground-truth reference for the
// distributed implementations.
package lu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// ErrSingular is returned when a pivot column has no usable (nonzero) pivot,
// i.e. the input matrix is singular to working precision.
var ErrSingular = errors.New("lu: matrix is singular")

// ErrNotSquare is returned for non-square inputs.
var ErrNotSquare = errors.New("lu: matrix is not square")

// pivotTol is the magnitude below which a pivot is considered zero.
const pivotTol = 1e-300

// Factorization holds a combined LU factorization with partial pivoting:
// P*A = L*U where L is unit lower triangular and U is upper triangular.
//
// As in Algorithm 1, L and U share one matrix: the strict lower triangle of
// LU holds L (unit diagonal implied, not stored) and the upper triangle
// including the diagonal holds U. P is stored compactly as a matrix.Perm.
type Factorization struct {
	LU *matrix.Dense
	P  matrix.Perm
	// swaps counts row exchanges, fixing the determinant's sign.
	swaps int
}

// Order returns the order n of the factored matrix.
func (f *Factorization) Order() int { return f.LU.Rows }

// Decompose computes the pivoted LU factorization of a square matrix A
// following Algorithm 1. A is not modified.
func Decompose(a *matrix.Dense) (*Factorization, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("lu: Decompose %dx%d: %w", a.Rows, a.Cols, ErrNotSquare)
	}
	lu := a.Clone()
	n := lu.Rows
	p := matrix.IdentityPerm(n)
	swaps := 0
	for i := 0; i < n; i++ {
		// Pivot selection: the row with maximum |element| in column i among
		// rows i..n-1 (Algorithm 1 line 3).
		piv, best := i, math.Abs(lu.At(i, i))
		for r := i + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, i)); v > best {
				piv, best = r, v
			}
		}
		if best < pivotTol {
			return nil, fmt.Errorf("lu: zero pivot at column %d: %w", i, ErrSingular)
		}
		if piv != i {
			swapRows(lu, i, piv)
			p[i], p[piv] = p[piv], p[i]
			swaps++
		}
		// Scale the subcolumn (Algorithm 1 lines 6-8) and update the
		// trailing submatrix (lines 9-13).
		inv := 1 / lu.At(i, i)
		for j := i + 1; j < n; j++ {
			lji := lu.At(j, i) * inv
			lu.Set(j, i, lji)
			if lji == 0 {
				continue
			}
			urow := lu.Row(i)[i+1:]
			jrow := lu.Row(j)[i+1:]
			for k, uv := range urow {
				jrow[k] -= lji * uv
			}
		}
	}
	return &Factorization{LU: lu, P: p, swaps: swaps}, nil
}

func swapRows(m *matrix.Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// L returns the unit lower triangular factor as an explicit matrix.
func (f *Factorization) L() *matrix.Dense {
	n := f.Order()
	l := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, f.LU.At(i, j))
		}
		l.Set(i, i, 1)
	}
	return l
}

// U returns the upper triangular factor as an explicit matrix.
func (f *Factorization) U() *matrix.Dense {
	n := f.Order()
	u := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, f.LU.At(i, j))
		}
	}
	return u
}

// Det returns the determinant of the original matrix: the product of U's
// diagonal with sign (-1)^swaps.
func (f *Factorization) Det() float64 {
	d := 1.0
	for i := 0; i < f.Order(); i++ {
		d *= f.LU.At(i, i)
	}
	if f.swaps%2 == 1 {
		d = -d
	}
	return d
}

// SolveVec solves A x = b using the factorization: forward substitution with
// L on the pivoted right-hand side, then back substitution with U.
func (f *Factorization) SolveVec(b []float64) ([]float64, error) {
	n := f.Order()
	if len(b) != n {
		return nil, fmt.Errorf("lu: SolveVec rhs length %d, want %d", len(b), n)
	}
	// y = L^-1 (P b)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[f.P[i]]
		row := f.LU.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s
	}
	// x = U^-1 y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := f.LU.Row(i)
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Solve solves A X = B column-by-column.
func (f *Factorization) Solve(b *matrix.Dense) (*matrix.Dense, error) {
	if b.Rows != f.Order() {
		return nil, fmt.Errorf("lu: Solve rhs has %d rows, want %d", b.Rows, f.Order())
	}
	out := matrix.New(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		x, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		for i, v := range x {
			out.Set(i, j, v)
		}
	}
	return out, nil
}

// Inverse computes A^-1 = U^-1 L^-1 P from the factorization, the paper's
// Section 4.3 procedure: invert both triangular factors via Equation 4,
// multiply (skipping the zero triangles), and undo pivoting by permuting
// columns.
func (f *Factorization) Inverse() (*matrix.Dense, error) {
	linv := LowerInverse(f.L(), true)
	uinv, err := UpperInverse(f.U())
	if err != nil {
		return nil, err
	}
	all := allIndices(f.Order())
	return f.P.ApplyCols(UpperLowerProduct(uinv, all, linv, all)), nil
}

// Invert is the convenience single-node inversion: Decompose + Inverse.
func Invert(a *matrix.Dense) (*matrix.Dense, error) {
	f, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse()
}

// LowerInverse inverts a lower triangular matrix by Equation 4:
//
//	[L^-1]ij = 0                                  for i < j
//	[L^-1]ii = 1/[L]ii
//	[L^-1]ij = -1/[L]ii * sum_{k=j}^{i-1} [L]ik [L^-1]kj   for i > j
//
// If unitDiagonal is true the diagonal of l is assumed to be all ones
// regardless of the stored values (the paper's convention lii = 1.0).
// Column j of the inverse depends only on column j — the independence the
// paper exploits to parallelize triangular inversion across mappers. The
// work runs row by row through LowerInverseColumns.
func LowerInverse(l *matrix.Dense, unitDiagonal bool) *matrix.Dense {
	return LowerInverseColumns(l, allIndices(l.Rows), unitDiagonal)
}

// allIndices returns 0, 1, ..., n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// InvertLowerColumn computes column j of the inverse of lower-triangular l
// directly into dst, as Equation 4 reads: one column at a time. It is the
// reference the row-oriented kernels (LowerInverseColumns) are tested
// against bit for bit; nothing on a hot path calls it.
func InvertLowerColumn(l *matrix.Dense, j int, unitDiagonal bool, dst *matrix.Dense) {
	n := l.Rows
	diag := func(i int) float64 {
		if unitDiagonal {
			return 1
		}
		return l.At(i, i)
	}
	dst.Set(j, j, 1/diag(j))
	for i := j + 1; i < n; i++ {
		var s float64
		row := l.Row(i)
		for k := j; k < i; k++ {
			s += row[k] * dst.At(k, j)
		}
		dst.Set(i, j, -s/diag(i))
	}
}

// UpperInverse inverts an upper triangular matrix. Following the paper's
// Section 4.1 optimization, it transposes U (giving a lower triangular
// matrix), inverts that with Equation 4, and transposes back — keeping every
// inner loop walking rows of row-major storage.
func UpperInverse(u *matrix.Dense) (*matrix.Dense, error) {
	n := u.Rows
	for i := 0; i < n; i++ {
		if math.Abs(u.At(i, i)) < pivotTol {
			return nil, fmt.Errorf("lu: zero diagonal at %d: %w", i, ErrSingular)
		}
	}
	ut := u.Transpose()
	inv := LowerInverse(ut, false)
	return inv.Transpose(), nil
}
