// Package linalg implements the small dense linear algebra kernel the
// baseline algorithms need: a row-major Matrix type, centroid decomposition
// via sign-vector iteration (for the CD baseline, Khayati et al.), a
// one-sided Jacobi SVD (for SVD-style truncation checks), and the rank-one
// recursive-least-squares update used by MUSCLES and SPIRIT's AR models.
//
// Only the operations the reproduction needs are provided; this is not a
// general-purpose BLAS.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m * v as a new slice.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %d-vector", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// TMulVec returns mᵀ * v as a new slice.
func (m *Matrix) TMulVec(v []float64) []float64 {
	if m.Rows != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d ᵀ * %d-vector", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		vi := v[i]
		for j, a := range row {
			out[j] += a * vi
		}
	}
	return out
}

// Sub subtracts other from m in place and returns m.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: shape mismatch in Sub")
	}
	for i := range m.Data {
		m.Data[i] -= other.Data[i]
	}
	return m
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equally long vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Scale multiplies v by a in place and returns v.
func Scale(v []float64, a float64) []float64 {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AXPY computes y += a*x in place and returns y.
func AXPY(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i := range y {
		y[i] += a * x[i]
	}
	return y
}

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. It returns false when A is (numerically) singular.
// A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic(fmt.Sprintf("linalg: Solve needs square system, got %dx%d with b of %d", a.Rows, a.Cols, len(b)))
	}
	// Augmented working copy.
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m.At(r, col)) > math.Abs(m.At(piv, col)) {
				piv = r
			}
		}
		if math.Abs(m.At(piv, col)) < 1e-12 {
			return nil, false
		}
		if piv != col {
			for j := 0; j < n; j++ {
				tmp := m.At(col, j)
				m.Set(col, j, m.At(piv, j))
				m.Set(piv, j, tmp)
			}
			x[col], x[piv] = x[piv], x[col]
		}
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / m.At(col, col)
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for j := col + 1; j < n; j++ {
			s -= m.At(col, j) * x[j]
		}
		x[col] = s / m.At(col, col)
	}
	return x, true
}

// Outer returns the outer product a ⊗ b as a len(a)×len(b) matrix.
func Outer(a, b []float64) *Matrix {
	m := NewMatrix(len(a), len(b))
	for i, ai := range a {
		row := m.Row(i)
		for j, bj := range b {
			row[j] = ai * bj
		}
	}
	return m
}
