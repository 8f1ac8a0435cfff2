package dsp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptyInput is returned by statistics that are undefined on empty data.
var ErrEmptyInput = errors.New("dsp: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("mean: %w", ErrEmptyInput)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, fmt.Errorf("variance: %w", err)
	}
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs (average of the two central elements for
// even lengths). The input is copied; MedianInPlace is the allocation-free
// variant for hot paths.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("median: %w", ErrEmptyInput)
	}
	s := append([]float64(nil), xs...)
	return MedianInPlace(s)
}

// MedianInPlace returns the median of xs without allocating. A NaN-free row
// of up to medianNetLanes (32) values — a 30-subcarrier CSI row, say — runs
// through a branch-free selection network over a stack copy and leaves xs
// in its original order; longer rows and rows holding a NaN go to
// MedianQuickselect, which partially reorders xs. Either way the result is
// the median Median (and sort.Float64s, NaNs first) gives.
func MedianInPlace(xs []float64) (float64, error) {
	if n := len(xs); n > 0 && n <= medianNetLanes && !hasNaN(xs) {
		return medianNet(xs), nil
	}
	return MedianQuickselect(xs)
}

// hasNaN reports whether xs holds a NaN (spelled x != x so it inlines).
func hasNaN(xs []float64) bool {
	for _, v := range xs {
		if v != v {
			return true
		}
	}
	return false
}

// MedianQuickselect returns the median of xs without allocating, partially
// reordering xs via quickselect (O(n) expected, versus the O(n log n) full
// sort Median pays). NaNs order first, like sort.Float64s. It is
// MedianInPlace's path for long or NaN-holding rows, and the reference its
// selection network is checked and benchmarked against.
func MedianQuickselect(xs []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("median: %w", ErrEmptyInput)
	}
	// NaN-free data (the overwhelmingly common case) selects with plain
	// float compares; any NaN falls back to the sort.Float64s ordering.
	var upper float64
	if hasNaN(xs) {
		upper = quickselect(xs, n/2)
	} else {
		upper = quickselectFast(xs, n/2)
	}
	if n%2 == 1 {
		return upper, nil
	}
	// Even length: the lower middle is the maximum of the left partition,
	// which quickselect left holding the n/2 smallest elements.
	lower := xs[0]
	for _, v := range xs[1 : n/2] {
		if fltLess(lower, v) {
			lower = v
		}
	}
	return (lower + upper) / 2, nil
}

// quickselectFast is quickselect for NaN-free data: plain float compares
// and a Hoare-style partition, which swaps far less than Lomuto on the
// mostly-unsorted rows the scoring loop feeds it.
func quickselectFast(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, sorted into place so xs[lo] ≤ p ≤ xs[hi].
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition: after the loop, xs[lo..j] ≤ pivot ≤ xs[j+1..hi].
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if xs[i] >= pivot {
					break
				}
			}
			for {
				j--
				if xs[j] <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

// fltLess is the sort.Float64s ordering: NaNs sort before everything. The
// x != x spelling of IsNaN keeps the comparison inlinable in the selection
// loop.
func fltLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// quickselect partially sorts xs so that xs[k] holds the k-th smallest
// element (0-based) and xs[:k] holds only elements ≤ it, returning xs[k].
// Median-of-three pivoting keeps sorted and constant inputs at O(n).
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, moved to xs[hi].
		mid := lo + (hi-lo)/2
		if fltLess(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if fltLess(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if fltLess(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[hi]
		// Lomuto partition around the pivot.
		i := lo
		for j := lo; j < hi; j++ {
			if fltLess(xs[j], pivot) {
				xs[i], xs[j] = xs[j], xs[i]
				i++
			}
		}
		xs[i], xs[hi] = xs[hi], xs[i]
		switch {
		case k == i:
			return xs[k]
		case k < i:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
	return xs[k]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile: %w", ErrEmptyInput)
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v out of [0,100]", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("minmax: %w", ErrEmptyInput)
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// ArgMax returns the index of the largest element of xs.
func ArgMax(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("argmax: %w", ErrEmptyInput)
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best, nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample (which is copied).
func NewCDF(sample []float64) (*CDF, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("cdf: %w", ErrEmptyInput)
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// At returns P(X ≤ x) for the empirical distribution.
func (c *CDF) At(x float64) float64 {
	// Number of samples ≤ x.
	n := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X ≤ v) ≥ q, for
// q ∈ (0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Points samples the CDF at n evenly spaced values spanning the data range,
// returning (x, P(X≤x)) pairs — what a figure plots.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if n < 2 {
		n = 2
	}
	lo := c.sorted[0]
	hi := c.sorted[len(c.sorted)-1]
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}
