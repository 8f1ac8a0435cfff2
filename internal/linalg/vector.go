package linalg

import "errors"

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense complex vector.
type Vector []complex128
