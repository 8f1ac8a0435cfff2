package core

import (
	"fmt"
	"math"

	"mlink/internal/dsp"
	"mlink/internal/music"
)

// PathWeightConfig bounds the angular region Eq. 17 enhances. Outside
// (MinDeg, MaxDeg) the weight is zero, because linear arrays estimate large
// angles unreliably (§IV-B2).
type PathWeightConfig struct {
	MinDeg, MaxDeg float64
	// FloorRatio clamps the pseudospectrum at FloorRatio·max(Ps) before
	// inversion so angles where essentially no energy ever arrives cannot
	// produce unbounded weights. The paper leaves this implicit; 1e-3
	// reproduces its behaviour while keeping the metric numerically sane.
	FloorRatio float64
}

// DefaultPathWeightConfig matches the paper's implementation choices
// (θmin = -60°, θmax = 60°).
func DefaultPathWeightConfig() PathWeightConfig {
	return PathWeightConfig{MinDeg: -60, MaxDeg: 60, FloorRatio: 1e-3}
}

// PathWeights implements Eq. 17: w(θ) = 1/Ps(θ) for θ ∈ (θmin, θmax), else
// 0, computed from the static (no-presence) pseudospectrum measured during
// calibration. The returned slice is aligned with static.AnglesDeg.
func PathWeights(static *music.Spectrum, cfg PathWeightConfig) ([]float64, error) {
	if static == nil || len(static.Power) == 0 {
		return nil, fmt.Errorf("empty static spectrum: %w", ErrBadInput)
	}
	if len(static.Power) != len(static.AnglesDeg) {
		return nil, fmt.Errorf("spectrum angles/power length mismatch: %w", ErrBadInput)
	}
	if cfg.MinDeg >= cfg.MaxDeg {
		return nil, fmt.Errorf("angular clamp [%v, %v]: %w", cfg.MinDeg, cfg.MaxDeg, ErrBadInput)
	}
	norm := static.Normalized()
	floor := cfg.FloorRatio
	if floor <= 0 {
		floor = 1e-6
	}
	out := make([]float64, len(norm.Power))
	for i, p := range norm.Power {
		theta := norm.AnglesDeg[i]
		if theta <= cfg.MinDeg || theta >= cfg.MaxDeg {
			continue
		}
		if p < floor {
			p = floor
		}
		out[i] = 1 / p
	}
	return out, nil
}

// weightedSpectrumDistanceDB computes the path-weighted Euclidean distance
// between the dB forms of two pseudospectra (the §IV-C decision statistic),
//
//	score = √( Σθ w(θ)·(Pm,dB(θ) - Pc,dB(θ))² / Σθ w(θ) ),
//
// computed straight from the linear power spectra. The weight
// normalization keeps scores comparable across links with different static
// spectra. Zero-weight angles contribute nothing to either sum term that
// depends on the spectra, so only the weighted angles pay a logarithm — and
// each pays one, 10·log₁₀(mon/cal) with both sides floored at 1e-30, instead
// of two, through the table-backed dsp.Log10Fast (≤2e-9 abs error — ≤2e-8 dB
// per weighted angle, far below the detector's decision margins). The
// property tests pin it to the naive dB conversion and math.Log10.
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
