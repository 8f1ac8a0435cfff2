package core

import (
	"errors"
	"fmt"
	"math"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/dsp"
)

// ErrBadInput reports invalid detector or metric input.
var ErrBadInput = errors.New("core: bad input")

// MultipathFactors computes the per-subcarrier multipath factor μk (Eq. 11)
// for one antenna's CSI row from a single packet:
//
//	μk = PL(fk) / |H(fk)|²,   PL(fk) = (fk⁻² / Σᵢ fᵢ⁻²) · Pdom
//
// where Pdom is the band-total power of the dominant propagation path,
// approximated (per the paper, following [11][21]) by the strongest tap of
// the inverse DFT of the CSI vector. The non-uniform Intel 5300 subcarrier
// indices are first resampled onto a uniform grid so the IDFT is valid.
//
// μk ≈ 1 means the subcarrier is dominated by the strongest (usually LOS)
// path; μk > 1 flags destructive multipath superposition — the sensitive
// regime the weighting scheme exploits.
//
// The "dominant path" is really the leading delay cluster: a physical path
// delay rarely falls exactly on a tap centre, so its energy leaks into
// adjacent taps, and the strongest IDFT tap is summed with its two cyclic
// neighbours to recover the cluster power. IDFT carries a 1/N scale, so the
// band-total power of a flat single-path channel is N·Σ|tap|².
// Scratch.MultipathFactorsInto implements the computation; this wrapper
// allocates the result.
func MultipathFactors(row []complex128, grid *channel.Grid) ([]float64, error) {
	if grid == nil || grid.Len() == 0 {
		return nil, fmt.Errorf("empty grid: %w", ErrBadInput)
	}
	mu := make([]float64, grid.Len())
	var sc Scratch
	if err := sc.MultipathFactorsInto(mu, row, grid); err != nil {
		return nil, err
	}
	return mu, nil
}

// MeanMultipathFactor returns the mean of μ across subcarriers — a scalar
// link-quality indicator used by the deployment-assessment example.
func MeanMultipathFactor(mu []float64) (float64, error) {
	m, err := dsp.Mean(mu)
	if err != nil {
		return 0, fmt.Errorf("mean multipath factor: %w", err)
	}
	return m, nil
}

// LinkMeanMu is a link's mean multipath factor over empty-room frames, the
// §IV-A deployment-assessment metric: the mean over frames of each frame's
// MeanMultipathFactor on antenna 1 (antenna 0 on a one-element receiver).
// perSub is each subcarrier's mean μ over the frames.
func LinkMeanMu(frames []*csi.Frame, grid *channel.Grid) (mean float64, perSub []float64, err error) {
	if len(frames) == 0 || grid == nil {
		return 0, nil, fmt.Errorf("link mean μ of %d frames: %w", len(frames), ErrBadInput)
	}
	var sc Scratch
	mu := make([]float64, grid.Len())
	perSub = make([]float64, grid.Len())
	n := float64(len(frames))
	for _, f := range frames {
		if len(f.CSI) == 0 {
			return 0, nil, fmt.Errorf("frame without antennas: %w", ErrBadInput)
		}
		if err := sc.MultipathFactorsInto(mu, f.CSI[min(1, len(f.CSI)-1)], grid); err != nil {
			return 0, nil, err
		}
		m, err := MeanMultipathFactor(mu)
		if err != nil {
			return 0, nil, err
		}
		mean += m
		for k, v := range mu {
			perSub[k] += v / n
		}
	}
	return mean / n, perSub, nil
}

// SubcarrierRSSdB returns the per-subcarrier received signal strength in dB
// (10·log10|H|²) for one antenna — the s(fk) quantity of §III.
func SubcarrierRSSdB(row []complex128) []float64 {
	out := make([]float64, len(row))
	for k, v := range row {
		re, im := real(v), imag(v)
		p := re*re + im*im
		if p <= 0 {
			out[k] = math.Inf(-1)
			continue
		}
		out[k] = 10 * math.Log10(p)
	}
	return out
}
