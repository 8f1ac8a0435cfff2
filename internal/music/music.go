package music

import (
	"errors"
	"fmt"
	"math"

	"mlink/internal/csi"
	"mlink/internal/linalg"
)

// ErrBadInput reports invalid estimator input.
var ErrBadInput = errors.New("music: bad input")

// Estimator holds a uniform linear array's geometry and angular scan
// parameters; NewPlan turns it into the cached spectrum kernels.
type Estimator struct {
	// Offsets are the element positions along the array axis in metres,
	// relative to the array centre (propagation.Array.Offsets()).
	Offsets []float64
	// Wavelength is the carrier wavelength in metres.
	Wavelength float64
	// StepDeg is the pseudospectrum angular resolution (default 1°).
	StepDeg float64
	// MaxDeg bounds the scan to [-MaxDeg, +MaxDeg] (default 90°).
	MaxDeg float64
}

// NewEstimator returns an estimator with default scan parameters.
func NewEstimator(offsets []float64, wavelength float64) (*Estimator, error) {
	if len(offsets) < 2 {
		return nil, fmt.Errorf("need ≥2 elements, got %d: %w", len(offsets), ErrBadInput)
	}
	if wavelength <= 0 {
		return nil, fmt.Errorf("wavelength %v: %w", wavelength, ErrBadInput)
	}
	return &Estimator{Offsets: offsets, Wavelength: wavelength, StepDeg: 1, MaxDeg: 90}, nil
}

// scanGrid resolves the estimator's scan parameters into a deterministic
// index-based grid of n angles, angle(i) = -maxDeg + i·step. Stepping by
// index instead of accumulating a float loop variable keeps the grid length
// exactly reproducible for any StepDeg — the cached steering table, the
// persisted path-weight vectors and every spectrum comparison depend on it.
// The closed-form count tolerates step values that do not divide the span
// exactly; the last angle never exceeds +maxDeg.
func (e *Estimator) scanGrid() (step, maxDeg float64, n int) {
	step = e.StepDeg
	if step <= 0 {
		step = 1
	}
	maxDeg = e.MaxDeg
	if maxDeg <= 0 || maxDeg > 90 {
		maxDeg = 90
	}
	n = int(math.Floor(2*maxDeg/step+1e-9)) + 1
	return step, maxDeg, n
}

// Covariance accumulates the spatial covariance matrix from CSI frames:
// every (packet, subcarrier) pair contributes one snapshot across antennas.
// Optional per-subcarrier weights scale each snapshot (the paper's
// subcarrier weighting feeding path weighting); nil means uniform.
func Covariance(frames []*csi.Frame, weights []float64) (*linalg.Matrix, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("no frames: %w", ErrBadInput)
	}
	nAnt := frames[0].NumAntennas()
	nSub := frames[0].NumSubcarriers()
	if nAnt == 0 || nSub == 0 {
		return nil, fmt.Errorf("empty frame: %w", ErrBadInput)
	}
	if weights != nil && len(weights) != nSub {
		return nil, fmt.Errorf("%d weights for %d subcarriers: %w", len(weights), nSub, ErrBadInput)
	}
	for k, w := range weights {
		// A negative weight would flip the snapshot's sign instead of
		// down-weighting it — reject rather than silently corrupt R.
		if w < 0 {
			return nil, fmt.Errorf("negative weight %v at subcarrier %d: %w", w, k, ErrBadInput)
		}
	}
	r := linalg.NewMatrix(nAnt, nAnt)
	count := 0
	snapshot := make(linalg.Vector, nAnt)
	for fi, f := range frames {
		if f.NumAntennas() != nAnt || f.NumSubcarriers() != nSub {
			return nil, fmt.Errorf("frame %d shape %dx%d differs from %dx%d: %w",
				fi, f.NumAntennas(), f.NumSubcarriers(), nAnt, nSub, ErrBadInput)
		}
		for k := 0; k < nSub; k++ {
			w := 1.0
			if weights != nil {
				w = weights[k]
			}
			if w == 0 {
				continue
			}
			for ant := 0; ant < nAnt; ant++ {
				snapshot[ant] = f.CSI[ant][k] * complex(w, 0)
			}
			for i := 0; i < nAnt; i++ {
				for j := 0; j < nAnt; j++ {
					r.Set(i, j, r.At(i, j)+snapshot[i]*conj(snapshot[j]))
				}
			}
			count++
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("all snapshots zero-weighted: %w", ErrBadInput)
	}
	return r.Scale(complex(1/float64(count), 0)), nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// EstimateSignals guesses the number of incoherent sources from the
// eigenvalue profile: eigenvalues within ratio (e.g. 0.1) of the largest
// count as signal. The result is clamped to [1, n-1] so a noise subspace
// always remains.
func EstimateSignals(values []float64, ratio float64) int {
	if len(values) == 0 {
		return 1
	}
	top := values[0]
	count := 0
	for _, v := range values {
		if v > top*ratio {
			count++
		}
	}
	if count < 1 {
		count = 1
	}
	if count > len(values)-1 {
		count = len(values) - 1
	}
	return count
}

// Spectrum is an angular pseudospectrum sampled on a regular grid.
type Spectrum struct {
	// AnglesDeg are the scan angles in degrees relative to broadside.
	AnglesDeg []float64
	// Power is the pseudospectrum value at each angle.
	Power []float64
}

// Normalized returns a copy of the spectrum scaled to unit maximum, making
// spectra from different capture windows comparable (see NormalizeInPlace).
func (s *Spectrum) Normalized() *Spectrum {
	out := &Spectrum{
		AnglesDeg: append([]float64(nil), s.AnglesDeg...),
		Power:     append([]float64(nil), s.Power...),
	}
	out.NormalizeInPlace()
	return out
}

// NormalizeInPlace scales the spectrum to unit maximum in place: infinite
// bins map to 1, and a spectrum with no positive finite peak is left
// unchanged.
func (s *Spectrum) NormalizeInPlace() {
	var peak float64
	for _, p := range s.Power {
		if !math.IsInf(p, 1) && p > peak {
			peak = p
		}
	}
	if peak <= 0 {
		return
	}
	for i, p := range s.Power {
		if math.IsInf(p, 1) {
			s.Power[i] = 1
			continue
		}
		s.Power[i] = p / peak
	}
}

// Peak is a local pseudospectrum maximum.
type Peak struct {
	AngleDeg float64
	Power    float64
}

// Peaks returns up to maxPeaks local maxima sorted by descending power.
func (s *Spectrum) Peaks(maxPeaks int) []Peak {
	var peaks []Peak
	n := len(s.Power)
	for i := 0; i < n; i++ {
		left := math.Inf(-1)
		right := math.Inf(-1)
		if i > 0 {
			left = s.Power[i-1]
		}
		if i < n-1 {
			right = s.Power[i+1]
		}
		if s.Power[i] >= left && s.Power[i] > right || (i == n-1 && s.Power[i] > left) {
			peaks = append(peaks, Peak{AngleDeg: s.AnglesDeg[i], Power: s.Power[i]})
		}
	}
	// Insertion sort by power (lists are tiny).
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].Power > peaks[j-1].Power; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	if maxPeaks > 0 && len(peaks) > maxPeaks {
		peaks = peaks[:maxPeaks]
	}
	return peaks
}

// DominantAngle returns the angle of the strongest pseudospectrum peak.
func (s *Spectrum) DominantAngle() (float64, error) {
	peaks := s.Peaks(1)
	if len(peaks) == 0 {
		return 0, fmt.Errorf("no peaks: %w", ErrBadInput)
	}
	return peaks[0].AngleDeg, nil
}
