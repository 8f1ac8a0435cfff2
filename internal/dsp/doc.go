// Package dsp provides the scalar signal-processing toolbox used across the
// repository: descriptive statistics, empirical CDFs, discrete Fourier
// transforms, phase unwrapping, and least-squares fits (linear and
// logarithmic — the Fig. 3b/3c relationship). Everything operates on plain
// float64/complex128 slices.
//
// Hot-path callers (the Eq. 11 multipath factor in internal/core, phase
// sanitization in internal/sanitize) use the *Into/*InPlace variants
// (IDFTInto, InterpolateComplexInto, UnwrapInPlace) with caller-owned
// buffers; the allocating forms delegate to them. Two per-packet kernels
// are specialised for the 30-subcarrier grid without changing results: a
// planned Transform runs 30 = 2·3·5 as a twiddle-free Good–Thomas
// prime-factor transform, and MedianInPlace selects the median of a NaN-free
// row of up to 32 values with a branch-free network (median_net.go,
// generated and kept current by TestMedianNetGenerated).
package dsp
