// Package music implements the MUltiple SIgnal Classification (MUSIC)
// angle-of-arrival estimator the paper uses (§IV-B1, Eq. 16, reference
// [23]): the spatial covariance of per-antenna CSI snapshots is
// eigendecomposed, the eigenvectors beyond the signal count span the noise
// subspace, and arrival angles appear as peaks of the angular
// pseudospectrum P(θ) = 1/(aᴴ(θ)·En·Enᴴ·a(θ)). A Bartlett (conventional
// beamformer) spectrum over the same steering vectors backs the detector's
// angular power comparison.
//
// Every angular spectrum goes through one call surface. An Estimator holds
// the array geometry and scan parameters; NewPlan returns the process-wide
// Plan for that exact geometry, which caches the steering-vector table for
// the index-stepped scan grid once (built on first use, then shared
// read-only by every caller and goroutine — a link's calibration and its
// scoring kernel hold the same one) and writes spectra into caller-owned
// buffers via BartlettInto/PseudospectrumInto. The detector's path-weighted
// score needs no spectrum at all: BartlettDistanceDB walks the table once,
// evaluating both Bartlett powers and the dB distance only at
// nonzero-weight angles, bit-identical to two BartlettInto spectra fed
// through the same distance. Covariance accumulates a spatial
// covariance from frames; Partials caches a fixed frame set's
// per-subcarrier snapshot outer products so a weighted covariance becomes a
// per-subcarrier combine (CovarianceInto) instead of a sweep over every
// frame, and owns its wire form (AppendBinary, ReadPartials), which
// persisted calibration profiles embed; NormalizeInPlace avoids a spectrum
// copy. The per-angle
// trigonometric reference spectra the Plan kernels are pinned to live in
// the package tests.
package music
