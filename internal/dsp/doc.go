// Package dsp provides the scalar signal-processing toolbox used across the
// repository: descriptive statistics, empirical CDFs, the inverse discrete
// Fourier transform, phase unwrapping, and least-squares fits (linear and
// logarithmic — the Fig. 3b/3c relationship). Everything operates on plain
// float64/complex128 slices.
//
// Hot-path callers (the Eq. 11 multipath factor in internal/core, phase
// sanitization in internal/sanitize) use the *Into/*InPlace variants
// (Transform.IDFTInto, UnwrapInPlace) with caller-owned buffers; neither has
// an allocating form. Two per-packet
// kernels are specialised for the 30-subcarrier grid without changing
// results: a planned Transform runs 30 = 2·3·5 as a twiddle-free Good–Thomas
// prime-factor transform (any size it has no such plan for takes the matrix
// IDFTInto), and MedianInPlace selects the median of a NaN-free
// row of up to 32 values with a branch-free network (median_net.go,
// generated and kept current by TestMedianNetGenerated).
package dsp
