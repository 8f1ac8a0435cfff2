package music

import (
	"errors"
	"fmt"
	"math"

	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/linalg"
)

// ErrBadInput reports invalid estimator input.
var ErrBadInput = errors.New("music: bad input")

// Estimator computes angular pseudospectra for a uniform linear array.
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

// NumAngles returns the length of the estimator's scan grid — the number of
// angles every Pseudospectrum/Bartlett call (and any Plan built from this
// estimator) will produce.
func (e *Estimator) NumAngles() int {
	_, _, n := e.scanGrid()
	return n
}

// Steering returns the array steering vector a(θ) for an angle relative to
// broadside: a_m(θ) = e^{+j·2π·offset_m·sinθ/λ}. The sign convention matches
// the propagation model's e^{-j2πfd/c} ray phases (an element closer to the
// source accumulates less negative phase).
func (e *Estimator) Steering(thetaRad float64) linalg.Vector {
	v := make(linalg.Vector, len(e.Offsets))
	s := math.Sin(thetaRad)
	for m, off := range e.Offsets {
		phi := 2 * math.Pi * off * s / e.Wavelength
		v[m] = complex(math.Cos(phi), math.Sin(phi))
	}
	return v
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

// Pseudospectrum computes the MUSIC pseudospectrum from a spatial covariance
// matrix assuming nSignals incoherent sources (clamped to keep a non-empty
// noise subspace; pass 0 to auto-estimate from the eigenvalue profile).
func (e *Estimator) Pseudospectrum(r *linalg.Matrix, nSignals int) (*Spectrum, error) {
	if r.Rows() != len(e.Offsets) || r.Cols() != len(e.Offsets) {
		return nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), len(e.Offsets), ErrBadInput)
	}
	var ws linalg.EigWorkspace
	eig, err := ws.EigHermitian(r)
	if err != nil {
		return nil, fmt.Errorf("pseudospectrum: %w", err)
	}
	if nSignals <= 0 {
		nSignals = EstimateSignals(eig.Values, 0.08)
	}
	if nSignals > len(e.Offsets)-1 {
		nSignals = len(e.Offsets) - 1
	}
	en, err := eig.NoiseSubspace(nSignals)
	if err != nil {
		return nil, fmt.Errorf("pseudospectrum: %w", err)
	}
	step, maxDeg, n := e.scanGrid()
	angles := make([]float64, 0, n)
	power := make([]float64, 0, n)
	for gi := 0; gi < n; gi++ {
		a := -maxDeg + float64(gi)*step
		sv := e.Steering(geom.DegToRad(a))
		// denom = ‖Enᴴ a‖².
		var denom float64
		for j := 0; j < en.Cols(); j++ {
			var dot complex128
			for i := 0; i < en.Rows(); i++ {
				dot += conj(en.At(i, j)) * sv[i]
			}
			denom += real(dot)*real(dot) + imag(dot)*imag(dot)
		}
		p := math.Inf(1)
		if denom > 1e-18 {
			p = 1 / denom
		}
		angles = append(angles, a)
		power = append(power, p)
	}
	return &Spectrum{AnglesDeg: angles, Power: power}, nil
}

// Bartlett computes the conventional (delay-and-sum) angular power spectrum
// B(θ) = aᴴ(θ)·R·a(θ). Unlike the MUSIC pseudospectrum, which depends only
// on subspace geometry, the Bartlett spectrum carries the received power per
// direction — the "subcarrier weighted signal strengths ... processed to
// output the angular pseudospectrum" the detector's decision distance runs
// on (§IV-C).
func (e *Estimator) Bartlett(r *linalg.Matrix) (*Spectrum, error) {
	if r.Rows() != len(e.Offsets) || r.Cols() != len(e.Offsets) {
		return nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), len(e.Offsets), ErrBadInput)
	}
	step, maxDeg, n := e.scanGrid()
	angles := make([]float64, 0, n)
	power := make([]float64, 0, n)
	rv := make(linalg.Vector, r.Rows())
	for gi := 0; gi < n; gi++ {
		a := -maxDeg + float64(gi)*step
		sv := e.Steering(geom.DegToRad(a))
		if err := r.MulVecInto(rv, sv); err != nil {
			return nil, fmt.Errorf("bartlett: %w", err)
		}
		dot, err := sv.Dot(rv)
		if err != nil {
			return nil, fmt.Errorf("bartlett: %w", err)
		}
		angles = append(angles, a)
		power = append(power, real(dot))
	}
	return &Spectrum{AnglesDeg: angles, Power: power}, nil
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

// ToDBInPlace converts a power spectrum to decibels in place, flooring at
// 1e-30 (well below any physical level) so downstream distances stay finite.
func (s *Spectrum) ToDBInPlace() {
	for i, p := range s.Power {
		if p < 1e-30 {
			p = 1e-30
		}
		s.Power[i] = 10 * math.Log10(p)
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
