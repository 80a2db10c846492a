// Package perfmodel implements the input-dependent execution-time and
// energy models of §4.2: "We intend to use an array of regression, SVM
// and PCA techniques for this purpose" — models trained on observed runs
// (input size/shape → time, power) that let the runtime scheduler
// "judiciously and dynamically select and distribute functions for
// hardware acceleration".
//
// The runtime's models are ordinary/ridge least squares (normal
// equations with Gaussian elimination), stdlib-only. The paper's SVM and
// PCA variants are not provided: no scheduler policy uses them.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadShape reports inconsistent training data.
var ErrBadShape = errors.New("perfmodel: inconsistent data shape")

// Regression is a linear model y = w·x + b fit by (ridge) least squares.
type Regression struct {
	// Lambda is the ridge penalty; 0 gives ordinary least squares.
	Lambda float64

	W []float64
	B float64

	fitted bool
}

// Fit solves the normal equations over rows X (n×d) and targets y (n).
func (r *Regression) Fit(x [][]float64, y []float64) error {
	n := len(x)
	if n == 0 || len(y) != n {
		return ErrBadShape
	}
	d := len(x[0])
	for _, row := range x {
		if len(row) != d {
			return ErrBadShape
		}
	}
	// Augment with a bias column: solve (A^T A + λI) w = A^T y.
	dim := d + 1
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = make([]float64, dim)
	}
	aty := make([]float64, dim)
	row := make([]float64, dim)
	for k := 0; k < n; k++ {
		copy(row, x[k])
		row[d] = 1
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				ata[i][j] += row[i] * row[j]
			}
			aty[i] += row[i] * y[k]
		}
	}
	for i := 0; i < d; i++ { // do not regularize the bias
		ata[i][i] += r.Lambda
	}
	w, err := solve(ata, aty)
	if err != nil {
		return err
	}
	r.W = w[:d]
	r.B = w[d]
	r.fitted = true
	return nil
}

// Predict evaluates the model; it panics if called before Fit succeeds.
func (r *Regression) Predict(x []float64) float64 {
	if !r.fitted {
		panic("perfmodel: Predict before Fit")
	}
	if len(x) != len(r.W) {
		panic(fmt.Sprintf("perfmodel: feature dim %d, model dim %d", len(x), len(r.W)))
	}
	s := r.B
	for i, v := range x {
		s += r.W[i] * v
	}
	return s
}

// R2 returns the coefficient of determination on a dataset.
func (r *Regression) R2(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range x {
		d := y[i] - r.Predict(x[i])
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a | b).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return nil, errors.New("perfmodel: singular system (collinear features?)")
		}
		m[col], m[p] = m[p], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
