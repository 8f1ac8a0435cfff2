package core

import (
	"fmt"
	"sync"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/music"
)

// Scheme selects the detection variant evaluated in §V.
type Scheme int

// The three schemes compared throughout the paper's evaluation.
const (
	// SchemeBaseline scores the Euclidean distance of mean CSI amplitudes.
	SchemeBaseline Scheme = iota + 1
	// SchemeSubcarrier adds the Eq. 15 subcarrier weighting of RSS changes.
	SchemeSubcarrier
	// SchemeSubcarrierPath adds MUSIC path weighting on top (§IV-C).
	SchemeSubcarrierPath
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "baseline"
	case SchemeSubcarrier:
		return "subcarrier-weighting"
	case SchemeSubcarrierPath:
		return "subcarrier+path-weighting"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme maps a command-line scheme name — baseline, subcarrier or
// path — to its Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "baseline":
		return SchemeBaseline, nil
	case "subcarrier":
		return SchemeSubcarrier, nil
	case "path":
		return SchemeSubcarrierPath, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (baseline|subcarrier|path)", name)
	}
}

// Config parameterizes calibration and detection.
type Config struct {
	// Grid is the OFDM subcarrier grid of the receiver.
	Grid *channel.Grid
	// Scheme selects the detector variant.
	Scheme Scheme
	// ArrayOffsets are the receive-array element offsets in metres
	// (required for SchemeSubcarrierPath).
	ArrayOffsets []float64
	// NumSignals is the MUSIC source count (0 = auto; the paper uses the
	// plain MUSIC algorithm able to separate 2 paths with 3 antennas).
	NumSignals int
	// PathWeight bounds and regularizes Eq. 17.
	PathWeight PathWeightConfig
	// SpectrumStepDeg is the pseudospectrum resolution (default 1°).
	SpectrumStepDeg float64
	// UsePerPacketWeights switches Eq. 15 weighting to the simpler Eq. 12
	// per-packet weighting (ablation).
	UsePerPacketWeights bool
}

// DefaultConfig returns the paper's implementation parameters for a given
// scheme.
func DefaultConfig(grid *channel.Grid, scheme Scheme, arrayOffsets []float64) Config {
	return Config{
		Grid:            grid,
		Scheme:          scheme,
		ArrayOffsets:    arrayOffsets,
		NumSignals:      2,
		PathWeight:      DefaultPathWeightConfig(),
		SpectrumStepDeg: 1,
	}
}

func (c *Config) validate() error {
	if c.Grid == nil || c.Grid.Len() == 0 {
		return fmt.Errorf("config needs a grid: %w", ErrBadInput)
	}
	switch c.Scheme {
	case SchemeBaseline, SchemeSubcarrier:
	case SchemeSubcarrierPath:
		if len(c.ArrayOffsets) < 2 {
			return fmt.Errorf("path weighting needs ≥2 array offsets: %w", ErrBadInput)
		}
	default:
		return fmt.Errorf("unknown scheme %d: %w", int(c.Scheme), ErrBadInput)
	}
	return nil
}

// wavelength returns the carrier wavelength of the grid centre.
func (c *Config) wavelength() float64 {
	return 299792458.0 / c.Grid.Center
}

// Profile is the calibration-stage output (§IV-C): the static fingerprint a
// monitoring window is compared against. A Profile is treated as immutable
// once built — the adaptation layer never edits a live Profile in place but
// swaps in a fresh one (see LinkProfile), so concurrent scorers always see a
// consistent snapshot.
type Profile struct {
	// MeanAmp is the mean linear CSI amplitude per [antenna][subcarrier]
	// (the baseline's reference).
	MeanAmp [][]float64
	// MeanRSSdB is the mean per-subcarrier RSS in dB (Δs reference).
	MeanRSSdB [][]float64
	// PathWeights is the Eq. 17 weight vector over the steering grid,
	// derived from Partials (see pathWeights); nil for schemes that do not
	// use the array.
	PathWeights []float64
	// Partials are the per-subcarrier covariance partials of the
	// calibration frames, the profile's only record of those packets: the
	// monitoring stage re-weights the calibration covariance with each
	// window's subcarrier weights (§IV-C), and the partials give that
	// covariance at O(nSub·nAnt²) without the frames. Set for
	// SchemeSubcarrierPath only (the other schemes read the fingerprints
	// alone) and serialized with the profile; PathWeights derive from them.
	Partials *music.Partials
}

// Calibrate builds the static profile from no-presence frames. It keeps
// nothing of the frames, so the caller may recycle them as soon as it
// returns.
func Calibrate(cfg Config, frames []*csi.Frame) (*Profile, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("calibrate with no frames: %w", ErrBadInput)
	}
	if err := checkShape(frames, frames[0].NumAntennas(), cfg.Grid.Len()); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	var ws WindowStats
	meanStatsInto(&ws, frames, nil, make([]float64, cfg.Grid.Len()))
	p := &Profile{
		MeanAmp:   ws.MeanAmp,
		MeanRSSdB: ws.MeanRSSdB,
	}

	if cfg.Scheme == SchemeSubcarrierPath {
		var err error
		if p.Partials, err = music.NewPartials(frames); err != nil {
			return nil, fmt.Errorf("spectral partials: %w", err)
		}
		if _, p.PathWeights, err = pathWeights(cfg, p.Partials); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Detector scores monitoring windows against a calibration profile: an
// immutable scoring Kernel plus the mutable link state (current profile and
// decision threshold). Profile and threshold reads/writes are synchronized,
// so an adaptation loop may refresh them while scoring workers are active;
// each scored window sees one consistent (profile, threshold) snapshot.
type Detector struct {
	kernel *Kernel

	mu        sync.RWMutex
	profile   *Profile
	threshold float64
}

// NewDetector pairs a config with its calibration profile. The threshold
// may be set later via SetThreshold or CalibrateThreshold.
func NewDetector(cfg Config, profile *Profile) (*Detector, error) {
	kernel, err := NewKernel(cfg)
	if err != nil {
		return nil, err
	}
	if profile == nil || len(profile.MeanAmp) == 0 {
		return nil, fmt.Errorf("detector needs a calibration profile: %w", ErrBadInput)
	}
	if cfg.Scheme == SchemeSubcarrierPath && (len(profile.PathWeights) == 0 || profile.Partials == nil) {
		return nil, fmt.Errorf("profile lacks path weights or partials for path weighting: %w", ErrBadInput)
	}
	return &Detector{kernel: kernel, profile: profile}, nil
}

// Kernel exposes the detector's immutable scoring kernel.
func (d *Detector) Kernel() *Kernel { return d.kernel }

// Profile returns the current calibration profile (read-only by convention).
func (d *Detector) Profile() *Profile {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.profile
}

// SetProfile atomically swaps in a refreshed profile. The new profile must
// be treated as immutable from here on; in-flight scorers keep using the
// snapshot they started with.
func (d *Detector) SetProfile(p *Profile) error {
	if p == nil || len(p.MeanAmp) == 0 {
		return fmt.Errorf("set nil profile: %w", ErrBadInput)
	}
	d.mu.Lock()
	d.profile = p
	d.mu.Unlock()
	return nil
}

// Threshold returns the current decision threshold.
func (d *Detector) Threshold() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.threshold
}

// SetThreshold fixes the decision threshold.
func (d *Detector) SetThreshold(t float64) {
	d.mu.Lock()
	d.threshold = t
	d.mu.Unlock()
}

// snapshot returns a consistent (profile, threshold) pair.
func (d *Detector) snapshot() (*Profile, float64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.profile, d.threshold
}

// Decision is a monitoring-window verdict.
type Decision struct {
	// Present is true when the score exceeds the threshold.
	Present bool
	// Score is the window's distance statistic.
	Score float64
	// Threshold is the threshold used for the verdict.
	Threshold float64
}

// ScoreScratch computes the scheme's distance statistic for a window of M
// frames against the current profile (§IV-C monitoring stage) — the one
// scoring entry point. The caller owns sc (nil is ErrBadInput) and reuses it
// across windows; a refresh that follows on the same scratch copies the mean
// RSS rows this call computed (see MeasureWindow).
func (d *Detector) ScoreScratch(window []*csi.Frame, sc *Scratch) (float64, error) {
	profile, _ := d.snapshot()
	return d.kernel.Score(profile, window, sc)
}

// DetectScratch is ScoreScratch plus the threshold comparison — the one
// decision entry point. The decision is made against one consistent
// (profile, threshold) snapshot even while an adaptation loop is updating
// the detector concurrently.
func (d *Detector) DetectScratch(window []*csi.Frame, sc *Scratch) (Decision, error) {
	profile, threshold := d.snapshot()
	score, err := d.kernel.Score(profile, window, sc)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Present: score > threshold, Score: score, Threshold: threshold}, nil
}

// MeasureWindow computes a window's profile statistics into ws, reusing the
// mean RSS rows sc holds if it just scored this window through the
// detector's kernel (see Kernel.MeasureWindowInto).
func (d *Detector) MeasureWindow(ws *WindowStats, window []*csi.Frame, sc *Scratch) error {
	return d.kernel.MeasureWindowInto(ws, window, sc)
}

func newEstimator(cfg Config) (*music.Estimator, error) {
	est, err := music.NewEstimator(cfg.ArrayOffsets, cfg.wavelength())
	if err != nil {
		return nil, fmt.Errorf("estimator: %w", err)
	}
	if cfg.SpectrumStepDeg > 0 {
		est.StepDeg = cfg.SpectrumStepDeg
	}
	return est, nil
}

func zeros2(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}
