package channel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Grid constants for the paper's setup.
const (
	// CenterFreqChannel11 is the centre frequency of 2.4 GHz channel 11.
	CenterFreqChannel11 = 2.462e9
	// SubcarrierSpacing is the 802.11n OFDM subcarrier spacing.
	SubcarrierSpacing = 312.5e3
	// NumSubcarriers is the number of subcarriers the Intel 5300 reports.
	NumSubcarriers = 30
)

// ErrBadGrid reports an invalid frequency-grid configuration.
var ErrBadGrid = errors.New("channel: bad grid")

// intel5300Indices are the subcarrier indices reported by the CSI Tool for a
// 20 MHz channel, exactly as listed in the paper's footnote 1.
var intel5300Indices = [NumSubcarriers]int{
	-28, -26, -24, -22, -20, -18, -16, -14, -12, -10,
	-8, -6, -4, -2, -1, 1, 3, 5, 7, 9,
	11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
}

// Intel5300Indices returns a copy of the CSI Tool subcarrier index list.
func Intel5300Indices() []int {
	out := make([]int, NumSubcarriers)
	copy(out[:], intel5300Indices[:])
	return out
}

// Grid is an OFDM subcarrier frequency grid.
type Grid struct {
	// Center is the carrier centre frequency in Hz.
	Center float64
	// Indices are the subcarrier indices relative to the centre.
	Indices []int
	// Spacing is the subcarrier spacing in Hz.
	Spacing float64
}

// NewIntel5300Grid returns the 30-subcarrier grid of the paper's receiver at
// the given centre frequency, which must be positive and finite.
func NewIntel5300Grid(center float64) (*Grid, error) {
	if !(center > 0) || math.IsInf(center, 1) {
		return nil, fmt.Errorf("center %v Hz: %w", center, ErrBadGrid)
	}
	return &Grid{Center: center, Indices: Intel5300Indices(), Spacing: SubcarrierSpacing}, nil
}

// Frequencies returns the absolute frequency of every subcarrier.
func (g *Grid) Frequencies() []float64 {
	out := make([]float64, len(g.Indices))
	for i, idx := range g.Indices {
		out[i] = g.Center + float64(idx)*g.Spacing
	}
	return out
}

// Len returns the number of subcarriers.
func (g *Grid) Len() int { return len(g.Indices) }

// AddAWGN returns h plus circularly-symmetric complex Gaussian noise sized
// so that the per-subcarrier SNR (averaged signal power over noise power)
// equals snrDB. The input is not modified. A nil rng or an empty input
// returns a copy of h unchanged.
func AddAWGN(h []complex128, snrDB float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, len(h))
	copy(out, h)
	AddAWGNInPlace(out, snrDB, rng)
	return out
}

// AddAWGNInPlace is AddAWGN mutating h directly — the allocation-free
// capture hot path. A nil rng or an empty input leaves h unchanged.
func AddAWGNInPlace(h []complex128, snrDB float64, rng *rand.Rand) {
	if rng == nil || len(h) == 0 {
		return
	}
	var avg float64
	for _, v := range h {
		re, im := real(v), imag(v)
		avg += re*re + im*im
	}
	avg /= float64(len(h))
	noisePower := avg / math.Pow(10, snrDB/10)
	sigma := math.Sqrt(noisePower / 2)
	for i := range h {
		h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
