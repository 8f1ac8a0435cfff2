package dsp

import (
	"fmt"
	"math"
)

// LinearFit holds y ≈ Slope·x + Intercept with the coefficient of
// determination R².
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear performs an ordinary least-squares line fit.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("linear fit: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("linear fit needs ≥2 points: %w", ErrEmptyInput)
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("linear fit: degenerate xs (all equal)")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// LogFit holds y ≈ A·ln(x) + B — the logarithmic relationship the paper fits
// between RSS change and multipath factor (Fig. 3b/3c).
type LogFit struct {
	A  float64
	B  float64
	R2 float64
}

// FitLog performs least squares of y on ln(x). Points with x ≤ 0 are
// rejected (the multipath factor is positive by construction).
func FitLog(xs, ys []float64) (LogFit, error) {
	if len(xs) != len(ys) {
		return LogFit{}, fmt.Errorf("log fit: %d xs vs %d ys", len(xs), len(ys))
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		lx = append(lx, math.Log(x))
		ly = append(ly, ys[i])
	}
	if len(lx) < 2 {
		return LogFit{}, fmt.Errorf("log fit needs ≥2 positive-x points: %w", ErrEmptyInput)
	}
	lin, err := FitLinear(lx, ly)
	if err != nil {
		return LogFit{}, fmt.Errorf("log fit: %w", err)
	}
	return LogFit{A: lin.Slope, B: lin.Intercept, R2: lin.R2}, nil
}
