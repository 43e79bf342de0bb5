// Package stats provides the aggregation tools the paper's evaluation
// uses: geometric means across workloads (§5.2) and the linear
// regression that ranks performance counters by their influence on
// run time (Appendix C, Table 5).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the regression system has no unique
// solution.
var ErrSingular = errors.New("stats: singular system (collinear or insufficient samples)")

// GeoMean returns the geometric mean of xs. All values must be
// positive; it panics otherwise (overhead ratios are positive by
// construction).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// standardize maps xs to zero mean and unit population variance.
// Constant columns map to all zeros.
func standardize(xs []float64) []float64 {
	m := Mean(xs)
	out := make([]float64, len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)))
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// LinReg fits y = X*beta by least squares over standardized columns,
// returning one coefficient per column of X. The magnitude of each
// coefficient reflects the importance of that predictor for the
// response — exactly how Table 5 ranks the hardware counters ("the
// magnitude of these coefficients is correlated with the importance of
// that metric in determining the execution time").
//
// X is sample-major: X[i][j] is predictor j of sample i. A small ridge
// term keeps near-collinear counter columns solvable, as is standard
// when regressing correlated hardware events.
func LinReg(X [][]float64, y []float64) ([]float64, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: LinReg needs matching non-empty X (%d) and y (%d)", n, len(y))
	}
	p := len(X[0])
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("stats: LinReg row %d has %d columns, want %d", i, len(row), p)
		}
	}
	// Standardize columns and response.
	cols := make([][]float64, p)
	for j := 0; j < p; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = X[i][j]
		}
		cols[j] = standardize(col)
	}
	ys := standardize(y)

	// Normal equations with ridge: (A + lambda*I) beta = b.
	const lambda = 1e-6
	A := make([][]float64, p)
	b := make([]float64, p)
	for j := 0; j < p; j++ {
		A[j] = make([]float64, p)
		for k := 0; k < p; k++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += cols[j][i] * cols[k][i]
			}
			A[j][k] = s
		}
		A[j][j] += lambda * float64(n)
		s := 0.0
		for i := 0; i < n; i++ {
			s += cols[j][i] * ys[i]
		}
		b[j] = s
	}
	beta, err := solve(A, b)
	if err != nil {
		return nil, err
	}
	return beta, nil
}

// solve performs Gaussian elimination with partial pivoting on the
// (small) dense system A x = b, destroying A and b.
func solve(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(A[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		A[col], A[pivot] = A[pivot], A[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= A[r][c] * x[c]
		}
		x[r] = s / A[r][r]
	}
	return x, nil
}

// Ratio returns a/b, treating a zero denominator the way the harness
// treats counter baselines: 1 when both are zero, else the numerator.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return a
	}
	return a / b
}
