package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"mlink/internal/dsp"
	"mlink/internal/geom"
	"mlink/internal/linalg"
	"mlink/internal/music"
)

// Allocating reference forms of the weighting and spectrum helpers. The
// production code only has the caller-buffer *Into variants; the unit and
// property suites use these wrappers as their oracles and convenience forms.

// subcarrierWeights derives Eq. 15 weights into a fresh struct.
func subcarrierWeights(mus [][]float64) (*SubcarrierWeights, error) {
	sw := &SubcarrierWeights{}
	if err := ComputeSubcarrierWeightsInto(sw, mus, nil); err != nil {
		return nil, err
	}
	return sw, nil
}

// perPacketWeights returns the Eq. 12 weights of one packet.
func perPacketWeights(mu []float64) ([]float64, error) {
	out := make([]float64, len(mu))
	if err := PerPacketWeightsInto(out, mu); err != nil {
		return nil, err
	}
	return out, nil
}

// averageWeightVectors averages per-antenna weight vectors into a new slice.
func averageWeightVectors(vectors [][]float64) ([]float64, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("no vectors: %w", ErrBadInput)
	}
	out := make([]float64, len(vectors[0]))
	if err := AverageWeightVectorsInto(out, vectors); err != nil {
		return nil, err
	}
	return out, nil
}

// toDB converts a power spectrum to decibels (floored well below any
// physical level to keep the distance finite). It is the allocating
// reference for weightedSpectrumDistanceDB.
func toDB(s *music.Spectrum) *music.Spectrum {
	out := &music.Spectrum{
		AnglesDeg: append([]float64(nil), s.AnglesDeg...),
		Power:     make([]float64, len(s.Power)),
	}
	for i, p := range s.Power {
		if p < 1e-30 {
			p = 1e-30
		}
		out.Power[i] = 10 * math.Log10(p)
	}
	return out
}

// weightedSpectrumDistanceDB computes the path-weighted Euclidean distance
// between the dB forms of two materialized power spectra,
//
//	score = √( Σθ w(θ)·(Pm,dB(θ) - Pc,dB(θ))² / Σθ w(θ) ),
//
// one 10·dsp.Log10Fast(mon/cal) per weighted angle with both sides floored
// at 1e-30. Fed two Plan.BartlettInto spectra, it is the bitwise reference
// for the fused music.Plan.BartlettDistanceDB: the weight sum runs over
// every angle, and each weighted angle does the same arithmetic.
func weightedSpectrumDistanceDB(mon, cal *music.Spectrum, weights []float64) (float64, error) {
	if mon == nil || cal == nil {
		return 0, fmt.Errorf("nil spectrum: %w", ErrBadInput)
	}
	n := len(mon.Power)
	if n == 0 || len(cal.Power) != n || len(weights) != n {
		return 0, fmt.Errorf("spectrum/weight lengths %d/%d/%d: %w", n, len(cal.Power), len(weights), ErrBadInput)
	}
	var num, den float64
	for i := 0; i < n; i++ {
		w := weights[i]
		den += w
		if w == 0 {
			continue
		}
		m := mon.Power[i]
		if m < 1e-30 {
			m = 1e-30
		}
		c := cal.Power[i]
		if c < 1e-30 {
			c = 1e-30
		}
		d := 10 * dsp.Log10Fast(m/c)
		num += w * d * d
	}
	if den == 0 {
		return 0, fmt.Errorf("all-zero path weights: %w", ErrBadInput)
	}
	return math.Sqrt(num / den), nil
}

// weightedSpectrumDistance computes the path-weighted Euclidean distance
// between two normalized pseudospectra (the §IV-C decision statistic):
//
//	score = √( Σθ w(θ)·(Pm(θ) - Pc(θ))² / Σθ w(θ) )
//
// The weight normalization keeps scores comparable across links with
// different static spectra.
func weightedSpectrumDistance(mon, cal *music.Spectrum, weights []float64) (float64, error) {
	if mon == nil || cal == nil {
		return 0, fmt.Errorf("nil spectrum: %w", ErrBadInput)
	}
	n := len(mon.Power)
	if n == 0 || len(cal.Power) != n || len(weights) != n {
		return 0, fmt.Errorf("spectrum/weight lengths %d/%d/%d: %w", n, len(cal.Power), len(weights), ErrBadInput)
	}
	var num, den float64
	for i := 0; i < n; i++ {
		d := mon.Power[i] - cal.Power[i]
		num += weights[i] * d * d
		den += weights[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("all-zero path weights: %w", ErrBadInput)
	}
	return math.Sqrt(num / den), nil
}

// bartlett computes the conventional angular power spectrum
// B(θ) = aᴴ(θ)·R·a(θ) on the estimator's scan grid, recomputing each
// steering vector a_m(θ) = e^{+j·2π·offset_m·sinθ/λ} with sin/cos and
// taking the full matrix-vector product — the reference for the cached
// steering table and upper-triangle kernel of music.Plan.BartlettInto.
func bartlett(est *music.Estimator, r *linalg.Matrix) (*music.Spectrum, error) {
	nAnt := len(est.Offsets)
	if r.Rows() != nAnt || r.Cols() != nAnt {
		return nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), nAnt, ErrBadInput)
	}
	plan, err := est.NewPlan()
	if err != nil {
		return nil, err
	}
	// BartlettInto sizes the spectrum and writes the scan grid's angle
	// axis; every power is then recomputed below.
	out := &music.Spectrum{}
	if err := plan.BartlettInto(out, r); err != nil {
		return nil, err
	}
	sv := make([]complex128, nAnt)
	for ai, a := range out.AnglesDeg {
		s := math.Sin(geom.DegToRad(a))
		for m, off := range est.Offsets {
			phi := 2 * math.Pi * off * s / est.Wavelength
			sv[m] = complex(math.Cos(phi), math.Sin(phi))
		}
		var dot complex128
		for i := range sv {
			var ra complex128
			for j := range sv {
				ra += r.At(i, j) * sv[j]
			}
			dot += cmplx.Conj(sv[i]) * ra
		}
		out.Power[ai] = real(dot)
	}
	return out, nil
}
