package music

import (
	"fmt"
	"math"

	"mlink/internal/geom"
	"mlink/internal/linalg"
)

// The per-angle reference spectra: each grid angle recomputes its steering
// vector with sin/cos and runs the textbook formula. Plan's cached steering
// table and in-place kernels are pinned to these.

// steering returns the array steering vector a(θ) for an angle relative to
// broadside: a_m(θ) = e^{+j·2π·offset_m·sinθ/λ}. The sign convention matches
// the propagation model's e^{-j2πfd/c} ray phases (an element closer to the
// source accumulates less negative phase).
func steering(e *Estimator, thetaRad float64) linalg.Vector {
	v := make(linalg.Vector, len(e.Offsets))
	s := math.Sin(thetaRad)
	for m, off := range e.Offsets {
		phi := 2 * math.Pi * off * s / e.Wavelength
		v[m] = complex(math.Cos(phi), math.Sin(phi))
	}
	return v
}

// pseudospectrum computes the MUSIC pseudospectrum
// P(θ) = 1/‖Enᴴ·a(θ)‖² from a spatial covariance matrix assuming nSignals
// incoherent sources (clamped to keep a non-empty noise subspace; 0
// auto-estimates from the eigenvalue profile).
func pseudospectrum(e *Estimator, r *linalg.Matrix, nSignals int) (*Spectrum, error) {
	if r.Rows() != len(e.Offsets) || r.Cols() != len(e.Offsets) {
		return nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), len(e.Offsets), ErrBadInput)
	}
	var ws linalg.EigWorkspace
	eig, err := ws.EigHermitian(r)
	if err != nil {
		return nil, fmt.Errorf("pseudospectrum: %w", err)
	}
	if nSignals <= 0 {
		nSignals = EstimateSignals(eig.Values, 0.08)
	}
	if nSignals > len(e.Offsets)-1 {
		nSignals = len(e.Offsets) - 1
	}
	step, maxDeg, n := e.scanGrid()
	out := &Spectrum{}
	for gi := 0; gi < n; gi++ {
		a := -maxDeg + float64(gi)*step
		sv := steering(e, geom.DegToRad(a))
		var denom float64
		for j := nSignals; j < len(e.Offsets); j++ {
			var dot complex128
			for i := range sv {
				dot += conj(eig.Vectors.At(i, j)) * sv[i]
			}
			denom += real(dot)*real(dot) + imag(dot)*imag(dot)
		}
		p := math.Inf(1)
		if denom > 1e-18 {
			p = 1 / denom
		}
		out.AnglesDeg = append(out.AnglesDeg, a)
		out.Power = append(out.Power, p)
	}
	return out, nil
}

// bartlett computes the conventional (delay-and-sum) angular power spectrum
// B(θ) = aᴴ(θ)·R·a(θ).
func bartlett(e *Estimator, r *linalg.Matrix) (*Spectrum, error) {
	if r.Rows() != len(e.Offsets) || r.Cols() != len(e.Offsets) {
		return nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), len(e.Offsets), ErrBadInput)
	}
	step, maxDeg, n := e.scanGrid()
	out := &Spectrum{}
	for gi := 0; gi < n; gi++ {
		a := -maxDeg + float64(gi)*step
		out.AnglesDeg = append(out.AnglesDeg, a)
		out.Power = append(out.Power, quadraticForm(r, steering(e, geom.DegToRad(a))))
	}
	return out, nil
}

// quadraticForm returns Re aᴴ·R·a through the full matrix-vector product.
func quadraticForm(r *linalg.Matrix, a linalg.Vector) float64 {
	var dot complex128
	for i := range a {
		var ra complex128
		for j := range a {
			ra += r.At(i, j) * a[j]
		}
		dot += conj(a[i]) * ra
	}
	return real(dot)
}
