package dsp

import (
	"math"
	"sync"
)

// twiddleSet holds the unit phasors of one transform size: fwd[m] =
// e^{-j2πm/N} and inv[m] = e^{+j2πm/N}. The exponent of the (k,t) term of a
// DFT is k·t mod N, so one table of N entries serves the whole O(N²)
// transform — the per-frame power-delay-profile transform in core touches no
// trig at all once its size is cached.
type twiddleSet struct {
	fwd, inv []complex128
}

// twiddleCache maps transform size → *twiddleSet. Sizes are few (the CSI
// pipeline transforms 30-point vectors) and workers are many, so a
// lock-free-on-read sync.Map fits.
var twiddleCache sync.Map

func twiddles(n int) *twiddleSet {
	if v, ok := twiddleCache.Load(n); ok {
		return v.(*twiddleSet)
	}
	ts := &twiddleSet{
		fwd: make([]complex128, n),
		inv: make([]complex128, n),
	}
	for m := 0; m < n; m++ {
		sin, cos := math.Sincos(2 * math.Pi * float64(m) / float64(n))
		ts.fwd[m] = complex(cos, -sin)
		ts.inv[m] = complex(cos, sin)
	}
	v, _ := twiddleCache.LoadOrStore(n, ts)
	return v.(*twiddleSet)
}

// IDFTInto computes the inverse discrete Fourier transform of x into dst
// (len(x), no aliasing) with 1/N scaling: O(n²) with cached twiddle factors,
// the path a Transform takes for sizes it has no prime-factor plan for.
//
//	x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}
func IDFTInto(dst, x []complex128) { matrixDFT(dst, x, true) }

func matrixDFT(dst, x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	w := twiddles(n).fwd
	if inverse {
		w = twiddles(n).inv
	}
	for k := 0; k < n; k++ {
		var sum complex128
		idx := 0
		for t := 0; t < n; t++ {
			sum += x[t] * w[idx]
			idx += k
			if idx >= n {
				idx -= n
			}
		}
		if inverse {
			sum *= complex(1/float64(n), 0)
		}
		dst[k] = sum
	}
}

// UnwrapInPlace removes 2π discontinuities from a phase sequence in place.
// It returns the slice for convenience.
func UnwrapInPlace(out []float64) []float64 {
	for i := 1; i < len(out); i++ {
		d := out[i] - out[i-1]
		for d > math.Pi {
			out[i] -= 2 * math.Pi
			d = out[i] - out[i-1]
		}
		for d < -math.Pi {
			out[i] += 2 * math.Pi
			d = out[i] - out[i-1]
		}
	}
	return out
}

// MovingAverage smooths xs with a centered window of the given odd width.
// Edges use the available partial window. It runs in O(n) via a prefix sum
// regardless of width.
func MovingAverage(xs []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	// prefix[i] = Σ xs[:i], so a window sum is one subtraction.
	prefix := make([]float64, len(xs)+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
	}
	out := make([]float64, len(xs))
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}
