package core

import (
	"fmt"
	"math"

	"mlink/internal/dsp"
)

// SubcarrierWeights holds the frequency-diversity weighting state of
// §IV-A2, computed over a window of M packets.
type SubcarrierWeights struct {
	// MeanMu is μ̄k, the temporal mean of the multipath factor per
	// subcarrier (average detection sensitivity).
	MeanMu []float64
	// StabilityRatio is rk (Eq. 13–14): the fraction of packets in which μk
	// exceeded that packet's cross-subcarrier median — consistently
	// sensitive subcarriers score high.
	StabilityRatio []float64
	// Weights is the combined normalized weight of Eq. 15:
	// |μ̄k·rk / (Σμ̄ · Σr)|.
	Weights []float64
}

// ComputeSubcarrierWeightsInto derives Eq. 15 weights from a window of
// multipath-factor measurements mus[m][k] (packet m, subcarrier k) into a
// caller-owned output struct, reusing sw's slices across calls — the scoring
// hot path's entry point. scratch, when non-nil, is a work buffer of at
// least one subcarrier row (it is clobbered); nil allocates a transient one.
func ComputeSubcarrierWeightsInto(sw *SubcarrierWeights, mus [][]float64, scratch []float64) error {
	if len(mus) == 0 {
		return fmt.Errorf("no packets: %w", ErrBadInput)
	}
	k := len(mus[0])
	if k == 0 {
		return fmt.Errorf("no subcarriers: %w", ErrBadInput)
	}
	meanMu := growFloats(&sw.MeanMu, k)
	ratio := growFloats(&sw.StabilityRatio, k)
	for i := range meanMu {
		meanMu[i], ratio[i] = 0, 0
	}
	if cap(scratch) < k {
		scratch = make([]float64, k)
	}
	scratch = scratch[:k]
	for m, mu := range mus {
		if len(mu) != k {
			return fmt.Errorf("packet %d has %d subcarriers, want %d: %w", m, len(mu), k, ErrBadInput)
		}
		// Median via allocation-free selection on the scratch copy (the mu
		// row itself must keep its subcarrier order).
		copy(scratch, mu)
		med, err := dsp.MedianInPlace(scratch)
		if err != nil {
			return fmt.Errorf("packet %d median: %w", m, err)
		}
		for i, v := range mu {
			meanMu[i] += v
			if v > med {
				ratio[i]++
			}
		}
	}
	mf := float64(len(mus))
	var sumMu, sumR float64
	for i := range meanMu {
		meanMu[i] /= mf
		ratio[i] /= mf
		sumMu += meanMu[i]
		sumR += ratio[i]
	}
	w := growFloats(&sw.Weights, k)
	switch {
	case sumMu > 0 && sumR > 0:
		for i := range w {
			w[i] = math.Abs(meanMu[i] * ratio[i] / (sumMu * sumR))
		}
	case sumMu > 0:
		// Degenerate window (e.g. a single packet where no subcarrier ever
		// exceeds the median of an all-equal μ vector): fall back to the
		// per-packet Eq. 12 weighting.
		for i := range w {
			w[i] = math.Abs(meanMu[i] / sumMu)
		}
	default:
		for i := range w {
			w[i] = 0
		}
	}
	return nil
}

// PerPacketWeightsInto implements the simpler Eq. 12 weighting from a single
// packet's multipath factors, wk = |μk / Σμ|, into a caller-owned buffer of
// len(mu). Used as an ablation of the stability ratio.
func PerPacketWeightsInto(dst, mu []float64) error {
	if len(mu) == 0 {
		return fmt.Errorf("no subcarriers: %w", ErrBadInput)
	}
	if len(dst) != len(mu) {
		return fmt.Errorf("%d weights for %d factors: %w", len(dst), len(mu), ErrBadInput)
	}
	var sum float64
	for _, v := range mu {
		sum += v
	}
	if sum == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	for i, v := range mu {
		dst[i] = math.Abs(v / sum)
	}
	return nil
}

// AverageWeightVectorsInto averages per-antenna weight vectors into dst, a
// caller buffer of the vectors' common length (used when one weight set must
// drive the array covariance).
func AverageWeightVectorsInto(dst []float64, vectors [][]float64) error {
	if len(vectors) == 0 {
		return fmt.Errorf("no vectors: %w", ErrBadInput)
	}
	n := len(vectors[0])
	if len(dst) != n {
		return fmt.Errorf("dst length %d, want %d: %w", len(dst), n, ErrBadInput)
	}
	for i := range dst {
		dst[i] = 0
	}
	for vi, v := range vectors {
		if len(v) != n {
			return fmt.Errorf("vector %d length %d, want %d: %w", vi, len(v), n, ErrBadInput)
		}
		for i, x := range v {
			dst[i] += x
		}
	}
	for i := range dst {
		dst[i] /= float64(len(vectors))
	}
	return nil
}
