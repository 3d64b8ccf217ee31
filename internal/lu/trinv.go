package lu

import (
	"fmt"

	"repro/internal/matrix"
)

// The two kernels of the final inversion job (Section 5.4): selected
// columns of a triangular inverse, and the triangle-aware product
// U^-1 L^-1. Both reproduce Equation 4 and a dot-product multiply bit for
// bit. Every output element accumulates exactly the same nonzero terms,
// in the same k-ascending order, into an accumulator that starts at +0.
// The only terms they skip are exact zeros (the zero triangle of a
// factor). Adding a zero product to a sum that began at +0 never changes
// it, because such a sum is never -0 under round-to-nearest. What they
// change is the loop order: rows instead of columns, so every inner loop
// is a contiguous axpy over row-major storage.

// rowBlock is the number of output rows one pass of the kernels keeps
// hot: each source row is read once per block rather than once per
// output row. The block is well within L1 for the pipeline's shapes.
const rowBlock = 8

// LowerColumns computes the columns cols (sorted ascending, distinct) of
// the inverse of an n x n lower triangular matrix by row-oriented forward
// substitution. Row i of the result needs only row i of the factor and
// the earlier result rows, so the factor is consumed by row bands in
// order (Add) and never has to be resident as a whole: this is how the
// inversion mappers stream the N(d) factor files.
type LowerColumns struct {
	out  *matrix.Dense // n x len(cols); row i holds [L^-1]_{i,cols}
	cols []int
	unit bool
	next int // the next factor row Add expects
}

// NewLowerColumns starts computing columns cols of the inverse of an
// n x n lower triangular matrix. If unitDiagonal is true the factor's
// diagonal is taken to be all ones whatever is stored there.
func NewLowerColumns(n int, cols []int, unitDiagonal bool) *LowerColumns {
	for i, c := range cols {
		if c < 0 || c >= n || (i > 0 && c <= cols[i-1]) {
			panic(fmt.Sprintf("lu: LowerColumns columns %v are not sorted distinct indices below %d", cols, n))
		}
	}
	return &LowerColumns{out: matrix.New(n, len(cols)), cols: cols, unit: unitDiagonal}
}

// Add consumes the next band.Rows factor rows, in order: the first call
// passes rows [0, r1), the next [r1, r2), and so on. Each row is a full
// row of length n.
func (lc *LowerColumns) Add(band *matrix.Dense) {
	n, m := lc.out.Rows, len(lc.cols)
	if band.Cols != n || lc.next+band.Rows > n {
		panic(fmt.Sprintf("lu: LowerColumns.Add %dx%d band at row %d of order %d", band.Rows, band.Cols, lc.next, n))
	}
	x := lc.out.Data
	for b0 := 0; b0 < band.Rows; b0 += rowBlock {
		b1 := minInt(b0+rowBlock, band.Rows)
		i0 := lc.next + b0
		// Terms from rows finished before this block, k-outer so that
		// result row k is read once for the whole block.
		for k, p := 0, 0; k < i0; k++ {
			for p < m && lc.cols[p] <= k {
				p++
			}
			if p == 0 {
				continue
			}
			xk := x[k*m : k*m+p]
			b := b0
			for ; b+4 <= b1; b += 4 {
				r := (i0 + b - b0) * m
				axpy4(x[r:], x[r+m:], x[r+2*m:], x[r+3*m:], xk,
					band.Data[b*n+k], band.Data[(b+1)*n+k], band.Data[(b+2)*n+k], band.Data[(b+3)*n+k])
			}
			for ; b < b1; b++ {
				if lv := band.Data[b*n+k]; lv != 0 {
					axpy(x[(i0+b-b0)*m:], xk, lv)
				}
			}
		}
		// The block's own triangle, row by row.
		for b := b0; b < b1; b++ {
			i := lc.next + b
			lrow := band.Data[b*n : (b+1)*n]
			xi := x[i*m : (i+1)*m]
			p := 0
			for p < m && lc.cols[p] < i0 {
				p++
			}
			for k := i0; k < i; k++ {
				for p < m && lc.cols[p] <= k {
					p++
				}
				if lv := lrow[k]; lv != 0 {
					axpy(xi, x[k*m:k*m+p], lv)
				}
			}
			d := 1.0
			if !lc.unit {
				d = lrow[i]
			}
			// p counts the columns below row i: finish them, then set the
			// diagonal entry if row i is one of the columns.
			for t := 0; t < p; t++ {
				xi[t] = -xi[t] / d
			}
			if p < m && lc.cols[p] == i {
				xi[p] = 1 / d
			}
		}
	}
	lc.next += band.Rows
}

// Inverse returns the n x len(cols) result once every row has been added.
func (lc *LowerColumns) Inverse() *matrix.Dense {
	if lc.next != lc.out.Rows {
		panic(fmt.Sprintf("lu: LowerColumns.Inverse after %d of %d rows", lc.next, lc.out.Rows))
	}
	return lc.out
}

// LowerInverseColumns returns columns cols (sorted ascending, distinct)
// of the inverse of lower triangular l as an n x len(cols) matrix. It
// adds the same terms in the same order as InvertLowerColumn.
func LowerInverseColumns(l *matrix.Dense, cols []int, unitDiagonal bool) *matrix.Dense {
	lc := NewLowerColumns(l.Rows, cols, unitDiagonal)
	lc.Add(l)
	return lc.Inverse()
}

// UpperLowerProduct returns the block of U^-1 L^-1 at rows rows and
// columns cols. uRows holds the requested rows of the upper triangular
// U^-1 (len(rows) x n), so uRows[bi][k] = 0 for k < rows[bi]; lCols holds
// the requested columns of the lower triangular L^-1 (n x len(cols)), so
// lCols[k][bj] = 0 for k < cols[bj]. Both index lists are sorted
// ascending. Element (bi, bj) sums k from max(rows[bi], cols[bj]) up,
// which is about n³/3 multiply-adds for a full product instead of n³, and
// it is bit-identical to matrix.Dot of the full row and column.
func UpperLowerProduct(uRows *matrix.Dense, rows []int, lCols *matrix.Dense, cols []int) *matrix.Dense {
	n, m := uRows.Cols, len(cols)
	if lCols.Rows != n || lCols.Cols != m || uRows.Rows != len(rows) {
		panic(fmt.Sprintf("lu: UpperLowerProduct %dx%d rows %d by %dx%d cols %d",
			uRows.Rows, uRows.Cols, len(rows), lCols.Rows, lCols.Cols, m))
	}
	out := matrix.New(len(rows), m)
	for b0 := 0; b0 < len(rows); b0 += rowBlock {
		b1 := minInt(b0+rowBlock, len(rows))
		// The block's rows ascend, so its first row starts the k range.
		for k, p := rows[b0], 0; k < n; k++ {
			for p < m && cols[p] <= k {
				p++
			}
			if p == 0 {
				continue
			}
			lk := lCols.Data[k*m : k*m+p]
			b := b0
			for ; b+4 <= b1; b += 4 {
				o := out.Data[b*m:]
				axpy4(o, o[m:], o[2*m:], o[3*m:], lk,
					uRows.Data[b*n+k], uRows.Data[(b+1)*n+k], uRows.Data[(b+2)*n+k], uRows.Data[(b+3)*n+k])
			}
			for ; b < b1; b++ {
				if uv := uRows.Data[b*n+k]; uv != 0 {
					axpy(out.Data[b*m:], lk, uv)
				}
			}
		}
	}
	return out
}

// axpy adds a*x to the first len(x) elements of dst. Each element gets
// one multiply-add, so unrolling leaves the per-element order unchanged.
func axpy(dst, x []float64, a float64) {
	dst = dst[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		d, s := dst[i:i+4:i+4], x[i:i+4:i+4]
		d[0] += a * s[0]
		d[1] += a * s[1]
		d[2] += a * s[2]
		d[3] += a * s[3]
	}
	for ; i < len(x); i++ {
		dst[i] += a * x[i]
	}
}

// axpy4 adds a0*x, a1*x, a2*x and a3*x to four rows at once, loading
// each element of x once. Zero coefficients add exact zeros, which leave
// the rows unchanged.
func axpy4(d0, d1, d2, d3, x []float64, a0, a1, a2, a3 float64) {
	if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
		return
	}
	d0, d1, d2, d3 = d0[:len(x)], d1[:len(x)], d2[:len(x)], d3[:len(x)]
	for i, v := range x {
		d0[i] += a0 * v
		d1[i] += a1 * v
		d2[i] += a2 * v
		d3[i] += a3 * v
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
