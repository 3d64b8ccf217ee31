package main

import (
	"fmt"
	"math"
)

// Answer tolerances. The inputs are well conditioned (Uniform(-1,1) at
// n=512 measures about 1e-12; the diagonally dominant serving inputs
// about 1e-15), so any answer beyond these is wrong, not imprecise.
const (
	inverseTol = 1e-8
	lstsqTol   = 1e-8
	// sampleCols is how many columns of a served inverse are checked.
	sampleCols = 4
)

// fullResidual returns max|I - A·X| over every entry.
func fullResidual(a, x dense) float64 {
	n := a.rows
	if a.cols != n || x.rows != n || x.cols != n {
		return math.Inf(1)
	}
	acc := make([]float64, n)
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := range acc {
			acc[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := a.data[i*n+k]
			xr := x.data[k*n : (k+1)*n]
			for j, v := range xr {
				acc[j] += aik * v
			}
		}
		acc[i] -= 1
		for _, v := range acc {
			worst = maxAbs(worst, v)
		}
	}
	return worst
}

// sampledResidual returns max|e_j - A·x_j| over sampleCols evenly spaced
// columns j of X, offset by salt so successive answers cover different
// columns. It costs O(sampleCols·n²) instead of the full check's O(n³);
// a wrong inverse is wrong in essentially every column.
func sampledResidual(a, x dense, salt int) float64 {
	n := a.rows
	if a.cols != n || x.rows != n || x.cols != n {
		return math.Inf(1)
	}
	s := min(sampleCols, n)
	worst := 0.0
	for t := 0; t < s; t++ {
		j := (t*n/s + salt) % n
		for i := 0; i < n; i++ {
			v := 0.0
			for k := 0; k < n; k++ {
				v += a.data[i*n+k] * x.data[k*n+j]
			}
			if i == j {
				v -= 1
			}
			worst = maxAbs(worst, v)
		}
	}
	return worst
}

// lstsqResidual returns the relative normal-equations residual of a
// least-squares answer x to min ||A x - b||:
// max|Aᵀ(A x - b)| / (‖A‖_F·(‖A‖_F·max|x| + max|b|)).
func lstsqResidual(a, b, x dense) float64 {
	m, n, k := a.rows, a.cols, b.cols
	if b.rows != m || x.rows != n || x.cols != k {
		return math.Inf(1)
	}
	r := make([]float64, m*k) // A x - b
	for i := 0; i < m; i++ {
		for c := 0; c < k; c++ {
			v := -b.data[i*k+c]
			for j := 0; j < n; j++ {
				v += a.data[i*n+j] * x.data[j*k+c]
			}
			r[i*k+c] = v
		}
	}
	worst := 0.0
	for j := 0; j < n; j++ {
		for c := 0; c < k; c++ {
			v := 0.0
			for i := 0; i < m; i++ {
				v += a.data[i*n+j] * r[i*k+c]
			}
			worst = maxAbs(worst, v)
		}
	}
	normA := 0.0
	for _, v := range a.data {
		normA += v * v
	}
	normA = math.Sqrt(normA)
	scale := normA * (normA*maxAbsOf(x.data) + maxAbsOf(b.data))
	if scale == 0 {
		return worst
	}
	return worst / scale
}

// maxAbs folds |v| into worst; a NaN makes the result +Inf so it can
// never pass a tolerance.
func maxAbs(worst, v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return math.Max(worst, math.Abs(v))
}

func maxAbsOf(xs []float64) float64 {
	w := 0.0
	for _, v := range xs {
		w = maxAbs(w, v)
	}
	return w
}

// checkAnswer returns an error when residual exceeds tol.
func checkAnswer(what string, residual, tol float64) error {
	if !(residual <= tol) {
		return fmt.Errorf("%s: residual %.3g exceeds %.0e", what, residual, tol)
	}
	return nil
}
