package core

import (
	"fmt"

	"mlink/internal/linalg"
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

// pathWeights derives a path profile's Eq. 17 weights from its partials —
// static covariance, MUSIC pseudospectrum on the kernel's steering grid
// (Fig. 5b), PathWeights — for Calibrate and the decoders alike. The
// spectrum is returned for inspection; no profile keeps it.
func pathWeights(cfg Config, parts *music.Partials) (*music.Spectrum, []float64, error) {
	k, err := NewKernel(cfg)
	if err != nil {
		return nil, nil, err
	}
	var cov linalg.Matrix
	if err := parts.CovarianceInto(&cov, nil); err != nil {
		return nil, nil, fmt.Errorf("static covariance: %w", err)
	}
	spec := &music.Spectrum{}
	if err := k.plan.PseudospectrumInto(spec, &cov, cfg.NumSignals, nil); err != nil {
		return nil, nil, fmt.Errorf("static pseudospectrum: %w", err)
	}
	w, err := PathWeights(spec, cfg.PathWeight)
	return spec, w, err
}
