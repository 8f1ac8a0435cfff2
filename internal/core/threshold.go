package core

import (
	"errors"
	"fmt"
	"math"

	"mlink/internal/csi"
	"mlink/internal/dsp"
)

// Threshold-calibration errors. All wrap ErrBadInput so callers that only
// distinguish "bad input" keep working, while adaptation code can match the
// specific failure and decide between retrying with more data and
// quarantining the link.
var (
	// ErrTooFewNullScores reports a null sample too small to estimate a
	// quantile from (fewer than MinNullScores).
	ErrTooFewNullScores = errors.New("core: too few null scores")
	// ErrDegenerateNull reports a null sample with no variation at all —
	// every score identical, which no real link produces; the capture path
	// is stuck or replaying a constant.
	ErrDegenerateNull = errors.New("core: degenerate null distribution")
	// ErrNonFiniteScore reports NaN or ±Inf in the null sample.
	ErrNonFiniteScore = errors.New("core: non-finite null score")
)

// MinNullScores is the smallest usable null sample. Two windows is the bare
// minimum for any spread estimate (the single-link facade calibrates from
// exactly two at its smallest setting).
const MinNullScores = 2

// ThresholdQuantile is the null-score quantile every detector threshold is
// calibrated at, and DefaultThresholdMargin the headroom factor applied on
// top where the caller sets none.
const (
	ThresholdQuantile      = 0.95
	DefaultThresholdMargin = 1.3
)

// SelfScores slides a window of the given size (with the given stride) over
// held-out no-presence frames and returns the detector's score for each
// window — the empirical null distribution the threshold is calibrated
// from ("determined by the variations of the static profile", §IV-C).
func (d *Detector) SelfScores(frames []*csi.Frame, windowSize, stride int) ([]float64, error) {
	if windowSize <= 0 {
		return nil, fmt.Errorf("window size %d: %w", windowSize, ErrBadInput)
	}
	if stride <= 0 {
		stride = windowSize
	}
	if len(frames) < windowSize {
		return nil, fmt.Errorf("%d frames for window %d: %w", len(frames), windowSize, ErrBadInput)
	}
	var scores []float64
	sc := NewScratch()
	for start := 0; start+windowSize <= len(frames); start += stride {
		s, err := d.ScoreScratch(frames[start:start+windowSize], sc)
		if err != nil {
			return nil, fmt.Errorf("self score at %d: %w", start, err)
		}
		scores = append(scores, s)
	}
	return scores, nil
}

// ValidateNullScores vets a null-score sample before a threshold is derived
// from it: enough samples, all finite, and not perfectly constant. It
// returns one of the typed threshold errors (all wrapping ErrBadInput) so a
// junk sample can never silently become a junk threshold.
func ValidateNullScores(nullScores []float64) error {
	if len(nullScores) < MinNullScores {
		return fmt.Errorf("%d null scores (need ≥%d): %w (%w)",
			len(nullScores), MinNullScores, ErrTooFewNullScores, ErrBadInput)
	}
	allSame := true
	for i, s := range nullScores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("null score [%d] = %v: %w (%w)", i, s, ErrNonFiniteScore, ErrBadInput)
		}
		if s != nullScores[0] {
			allSame = false
		}
	}
	if allSame {
		return fmt.Errorf("all %d null scores identical (%v): %w (%w)",
			len(nullScores), nullScores[0], ErrDegenerateNull, ErrBadInput)
	}
	return nil
}

// DeriveThreshold computes (without setting) the q-quantile of the null
// scores inflated by margin. It is the pure function behind
// CalibrateThreshold, shared with the adaptation layer's online threshold
// re-derivation.
func DeriveThreshold(nullScores []float64, q, margin float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("quantile %v: %w", q, ErrBadInput)
	}
	if err := ValidateNullScores(nullScores); err != nil {
		return 0, err
	}
	if margin <= 0 {
		margin = 1
	}
	cdf, err := dsp.NewCDF(nullScores)
	if err != nil {
		return 0, fmt.Errorf("threshold: %w", err)
	}
	return cdf.Quantile(q) * margin, nil
}

// CalibrateThreshold sets the decision threshold to the q-quantile of the
// null scores inflated by margin (q close to 1 bounds the false-positive
// rate; margin adds headroom for unseen dynamics). It returns the chosen
// threshold, or a typed error (ErrTooFewNullScores, ErrNonFiniteScore,
// ErrDegenerateNull — all wrapping ErrBadInput) when the null sample cannot
// support a meaningful threshold.
func (d *Detector) CalibrateThreshold(nullScores []float64, q, margin float64) (float64, error) {
	if len(nullScores) == 0 {
		return 0, fmt.Errorf("no null scores: %w (%w)", ErrTooFewNullScores, ErrBadInput)
	}
	t, err := DeriveThreshold(nullScores, q, margin)
	if err != nil {
		return 0, err
	}
	d.SetThreshold(t)
	return t, nil
}
