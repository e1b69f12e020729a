// Package mat implements the dense linear-algebra kernel used by the EKF
// state estimator, the kriging interpolator and the neural network. The
// Matrix type keeps the convenient row-major API; underneath it sits an
// allocation-free compute core (kernel.go) of flat blocked/tiled GEMM
// variants, Gemv, Axpy, in-place element-wise ops, a Workspace scratch
// arena and Cholesky solves, which the hot paths — batched NN training and
// inference, kriging — call directly.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero matrix with the given shape. It panics on non-positive
// dimensions, which indicate a programming error.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mat: FromRows requires non-empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("mat: ragged input, row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with the given diagonal entries.
func Diag(d ...float64) *Matrix {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Scale multiplies every element by s, returning a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	c := m.Clone()
	for i := range c.data {
		c.data[i] *= s
	}
	return c
}

// Plus returns m + b. It panics on shape mismatch.
func (m *Matrix) Plus(b *Matrix) *Matrix {
	m.sameShape(b)
	c := m.Clone()
	for i := range c.data {
		c.data[i] += b.data[i]
	}
	return c
}

// Minus returns m - b. It panics on shape mismatch.
func (m *Matrix) Minus(b *Matrix) *Matrix {
	m.sameShape(b)
	c := m.Clone()
	for i := range c.data {
		c.data[i] -= b.data[i]
	}
	return c
}

func (m *Matrix) sameShape(b *Matrix) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// Mul returns the matrix product m·b. It panics if the inner dimensions
// disagree.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: cannot multiply %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	c := New(m.rows, b.cols)
	MatMul(c.data, m.data, b.data, m.rows, m.cols, b.cols)
	return c
}

// MulVec returns the matrix-vector product m·x as a new slice.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("mat: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	Gemv(out, m.data, x, m.rows, m.cols)
	return out
}

// Symmetrize overwrites m with (m + mᵀ)/2, useful for keeping covariance
// matrices numerically symmetric. It panics if m is not square.
func (m *Matrix) Symmetrize() {
	if m.rows != m.cols {
		panic("mat: Symmetrize requires a square matrix")
	}
	Symmetrize(m.data, m.rows)
}

// ErrSingular is returned when a solve or inverse encounters a singular (or
// numerically singular) matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU is an LU factorisation with partial pivoting.
type LU struct {
	lu   *Matrix
	piv  []int
	sign float64
}

// Factor computes the LU factorisation of a square matrix.
func Factor(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: LU requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivot.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs < 1e-14 {
			return nil, fmt.Errorf("%w: pivot %d ≈ 0", ErrSingular, k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				tmp := lu.At(k, j)
				lu.Set(k, j, lu.At(p, j))
				lu.Set(p, j, tmp)
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -f*lu.At(k, j))
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b for x given the factorisation of A.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.rows
	if len(b) != n {
		return nil, fmt.Errorf("mat: rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	det := f.sign
	for i := 0; i < f.lu.rows; i++ {
		det *= f.lu.At(i, i)
	}
	return det
}

// Solve solves A·x = b directly.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns A⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite matrix A.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("%w: not positive definite at %d (value %g)", ErrSingular, i, sum)
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
