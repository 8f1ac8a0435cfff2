package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense complex vector.
type Vector []complex128

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("add %d and %d: %w", len(v), len(w), ErrDimensionMismatch)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out, nil
}

// Sub returns v - w.
func (v Vector) Sub(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("sub %d and %d: %w", len(v), len(w), ErrDimensionMismatch)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out, nil
}

// Scale returns s * v.
func (v Vector) Scale(s complex128) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// Dot returns the Hermitian inner product conj(v)·w.
func (v Vector) Dot(w Vector) (complex128, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d and %d: %w", len(v), len(w), ErrDimensionMismatch)
	}
	var sum complex128
	for i := range v {
		sum += cmplx.Conj(v[i]) * w[i]
	}
	return sum, nil
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var sum float64
	for _, x := range v {
		re, im := real(x), imag(x)
		sum += re*re + im*im
	}
	return math.Sqrt(sum)
}

// Abs returns the element-wise magnitudes of v.
func (v Vector) Abs() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = cmplx.Abs(x)
	}
	return out
}

// Power returns the element-wise squared magnitudes |v[i]|².
func (v Vector) Power() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		re, im := real(x), imag(x)
		out[i] = re*re + im*im
	}
	return out
}

// Conj returns the element-wise complex conjugate of v.
func (v Vector) Conj() Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = cmplx.Conj(x)
	}
	return out
}
