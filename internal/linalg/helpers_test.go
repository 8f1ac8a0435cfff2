package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix constructors, products and vector norms the eigensolver tests use as
// fixtures and checks; production code only needs the in-place forms.

// matrixFromRows builds a matrix from row slices. All rows must have equal
// length.
func matrixFromRows(rows [][]complex128) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("matrix from 0 rows: %w", ErrDimensionMismatch)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(r), cols, ErrDimensionMismatch)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// col returns a copy of column j.
func (m *Matrix) col(j int) Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// mul returns the matrix product m·b.
func (m *Matrix) mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("mul %dx%d and %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrDimensionMismatch)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// mulVecInto writes the matrix-vector product m·v into a caller-owned dst
// of length Rows. dst and v must not alias.
func (m *Matrix) mulVecInto(dst, v Vector) error {
	if m.cols != len(v) {
		return fmt.Errorf("mulvec %dx%d and %d: %w", m.rows, m.cols, len(v), ErrDimensionMismatch)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("mulvec dst %d for %d rows: %w", len(dst), m.rows, ErrDimensionMismatch)
	}
	for i := 0; i < m.rows; i++ {
		var sum complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			sum += a * v[j]
		}
		dst[i] = sum
	}
	return nil
}

// conjTranspose returns the Hermitian transpose mᴴ.
func (m *Matrix) conjTranspose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// dot returns the Hermitian inner product conj(v)·w.
func (v Vector) dot(w Vector) (complex128, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d and %d: %w", len(v), len(w), ErrDimensionMismatch)
	}
	var sum complex128
	for i := range v {
		sum += cmplx.Conj(v[i]) * w[i]
	}
	return sum, nil
}

// norm returns the Euclidean norm of v.
func (v Vector) norm() float64 {
	var sum float64
	for _, x := range v {
		re, im := real(x), imag(x)
		sum += re*re + im*im
	}
	return math.Sqrt(sum)
}
