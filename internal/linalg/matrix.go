package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.data[i*m.cols+j] = v }

// Reuse reshapes m to a zeroed rows×cols matrix in place, growing the
// backing storage only when needed. The zero value of Matrix is valid to
// Reuse, so scratch holders can embed a Matrix by value and let the first
// call size it.
func (m *Matrix) Reuse(rows, cols int) {
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]complex128, n)
	}
	m.data = m.data[:n]
	for i := range m.data {
		m.data[i] = 0
	}
	m.rows, m.cols = rows, cols
}

// CopyFrom overwrites m's contents with b's. Shapes must match.
func (m *Matrix) CopyFrom(b *Matrix) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("copy %dx%d into %dx%d: %w", b.rows, b.cols, m.rows, m.cols, ErrDimensionMismatch)
	}
	copy(m.data, b.data)
	return nil
}

// SetIdentity rewrites m as the identity (ones on the main diagonal, zeros
// elsewhere) without reallocating.
func (m *Matrix) SetIdentity() {
	for i := range m.data {
		m.data[i] = 0
	}
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] = 1
	}
}

// Scale returns s * m.
func (m *Matrix) Scale(s complex128) *Matrix {
	out := NewMatrix(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = s * m.data[i]
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var sum float64
	for _, x := range m.data {
		re, im := real(x), imag(x)
		sum += re*re + im*im
	}
	return math.Sqrt(sum)
}

// IsHermitian reports whether m equals mᴴ within tolerance tol.
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i; j < m.cols; j++ {
			d := m.At(i, j) - cmplx.Conj(m.At(j, i))
			if cmplx.Abs(d) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%7.4f%+7.4fi", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
