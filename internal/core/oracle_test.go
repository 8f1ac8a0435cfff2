package core

import (
	"fmt"
	"math"

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
// reference for Spectrum.ToDBInPlace and weightedSpectrumDistanceDB.
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
