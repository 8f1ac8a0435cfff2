// Package mlink is the public facade of the repository: a device-free human
// detection library for commodity WiFi links, reproducing "On Multipath
// Link Characterization and Adaptation for Device-Free Human Detection"
// (Zhou et al., IEEE ICDCS 2015).
//
// The facade wires the layers together for the common path — simulate (or
// stream) CSI from a link, calibrate a static profile, and score monitoring
// windows:
//
//	sys, _ := mlink.NewClassroomSystem(mlink.SchemeSubcarrierPath, 1)
//	_ = sys.Calibrate(300)
//	dec, _ := sys.DetectPresence(25, &mlink.Person{X: 3, Y: 4})
//
// For a whole deployment, Engine monitors many links at once — parallel
// calibration, pooled window scoring and fused site verdicts (see
// NewEngine and cmd/mlink-serve).
//
// Lower-level building blocks live in the internal packages: propagation
// (ray tracing), csi (Intel-5300-style extraction), core (multipath factor,
// subcarrier and path weighting, detector), engine (concurrent multi-link
// monitoring), music (AoA), csinet (distributed collection), scenario (the
// paper's testbeds), experiments (figure-by-figure reproduction).
package mlink

import (
	"errors"
	"fmt"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/scenario"
)

// Scheme selects the detection variant (§V of the paper).
type Scheme = core.Scheme

// The three schemes the paper compares.
const (
	SchemeBaseline       = core.SchemeBaseline
	SchemeSubcarrier     = core.SchemeSubcarrier
	SchemeSubcarrierPath = core.SchemeSubcarrierPath
)

// Decision is a monitoring verdict (score vs threshold).
type Decision = core.Decision

// Frame is one packet's CSI.
type Frame = csi.Frame

// ErrNotCalibrated is returned when detection is attempted before
// Calibrate.
var ErrNotCalibrated = errors.New("mlink: system not calibrated")

// Person is a human target at room coordinates (metres).
type Person struct {
	X, Y float64
	// Radius is the body cylinder radius; 0 means a typical adult (0.2 m).
	Radius float64
	// RCS is the radar cross-section; 0 means a typical adult (0.8 m²).
	RCS float64
}

func (p *Person) body() body.Body {
	b := body.Default(geom.Point{X: p.X, Y: p.Y})
	if p.Radius > 0 {
		b.Radius = p.Radius
	}
	if p.RCS > 0 {
		b.RCS = p.RCS
	}
	return b
}

// System binds a simulated link to a detector: the one-stop entry point for
// examples and quick experiments. A System is not safe for concurrent use:
// its extractor and its scoring scratch are single-goroutine state.
type System struct {
	Scenario  *scenario.Scenario
	extractor *csi.Extractor
	cfg       core.Config
	detector  *core.Detector
	sc        *core.Scratch

	adaptive   bool // EnableAdaptation was called
	adapter    *adapt.Adapter
	nullScores []float64
}

// NewClassroomSystem builds the paper's 4 m classroom link (§III-A).
func NewClassroomSystem(scheme Scheme, seed int64) (*System, error) {
	s, err := scenario.Classroom(seed)
	if err != nil {
		return nil, fmt.Errorf("mlink: %w", err)
	}
	return newSystem(s, scheme)
}

// NewLinkCaseSystem builds one of the five evaluation links of Fig. 6
// (n ∈ [1,5]).
func NewLinkCaseSystem(n int, scheme Scheme, seed int64) (*System, error) {
	s, err := scenario.LinkCase(n, seed)
	if err != nil {
		return nil, fmt.Errorf("mlink: %w", err)
	}
	return newSystem(s, scheme)
}

// NewSystem wraps an existing scenario.
func NewSystem(s *scenario.Scenario, scheme Scheme) (*System, error) {
	return newSystem(s, scheme)
}

func newSystem(s *scenario.Scenario, scheme Scheme) (*System, error) {
	x, err := s.NewExtractor(1)
	if err != nil {
		return nil, fmt.Errorf("mlink: %w", err)
	}
	cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
	return &System{Scenario: s, extractor: x, cfg: cfg, sc: core.NewScratch()}, nil
}

// Capture simulates one packet with the given people present and returns
// its CSI frame.
func (s *System) Capture(people ...*Person) *Frame {
	return s.extractor.Capture(bodiesOf(people))
}

// CaptureWindow simulates n packets with a fixed set of people.
func (s *System) CaptureWindow(n int, people ...*Person) []*Frame {
	return s.extractor.CaptureN(n, bodiesOf(people))
}

func bodiesOf(people []*Person) []body.Body {
	var out []body.Body
	for _, p := range people {
		if p == nil {
			continue
		}
		out = append(out, p.body())
	}
	return out
}

// Calibrate captures n empty-room packets, builds the static profile, and
// calibrates a decision threshold from held-out self scores (§IV-C
// calibration stage). It must be called before DetectPresence or
// ScoreWindow.
func (s *System) Calibrate(n int) error {
	if n < 50 {
		n = 50
	}
	cal := s.extractor.CaptureN(n, nil)
	profile, err := core.Calibrate(s.cfg, cal)
	if err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	det, err := core.NewDetector(s.cfg, profile)
	if err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	holdout := s.extractor.CaptureN(n, nil)
	null, err := det.SelfScores(holdout, 25, 25)
	if err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	if _, err := det.CalibrateThreshold(null, core.ThresholdQuantile, core.DefaultThresholdMargin); err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	s.detector = det
	s.nullScores = null
	s.adapter = nil
	if s.adaptive {
		adapter, err := adapt.NewAdapter(adapt.Policy{}, det, null)
		if err != nil {
			return fmt.Errorf("mlink calibrate: %w", err)
		}
		s.adapter = adapter
	}
	return nil
}

// EnableAdaptation turns on online adaptation for this link: every window
// passed through DetectPresence or DetectWindow refreshes the profile when
// confidently empty, re-derives the threshold, and tracks drift health.
// Works before or after Calibrate; a later (re-)Calibrate rebuilds the
// adapter.
func (s *System) EnableAdaptation() error {
	s.adaptive = true
	if s.detector == nil {
		return nil
	}
	adapter, err := adapt.NewAdapter(adapt.Policy{}, s.detector, s.nullScores)
	if err != nil {
		return fmt.Errorf("mlink adaptation: %w", err)
	}
	s.adapter = adapter
	return nil
}

// Health returns the link's adaptation snapshot (the zero value when
// adaptation is disabled or the system is not calibrated).
func (s *System) Health() LinkHealth {
	if s.adapter == nil {
		return LinkHealth{}
	}
	return s.adapter.Health()
}

// Detector exposes the underlying detector (nil before Calibrate).
func (s *System) Detector() *core.Detector { return s.detector }

// DetectPresence captures a monitoring window of n packets with the given
// people present (nil for an empty room) and returns the verdict.
func (s *System) DetectPresence(n int, people ...*Person) (Decision, error) {
	if s.detector == nil {
		return Decision{}, ErrNotCalibrated
	}
	return s.DetectWindow(s.CaptureWindow(n, people...))
}

// DetectWindow scores an externally collected window against the threshold
// and, when adaptation is enabled, feeds the outcome to the adaptation
// loop.
func (s *System) DetectWindow(window []*Frame) (Decision, error) {
	if s.detector == nil {
		return Decision{}, ErrNotCalibrated
	}
	dec, err := s.detector.DetectScratch(window, s.sc)
	if err != nil {
		return Decision{}, err
	}
	if s.adapter != nil {
		if _, err := s.adapter.ObserveScored(window, dec, s.sc); err != nil {
			return Decision{}, fmt.Errorf("mlink adaptation: %w", err)
		}
	}
	return dec, nil
}

// ScoreWindow scores an externally collected window (e.g. frames received
// over csinet).
func (s *System) ScoreWindow(window []*Frame) (float64, error) {
	if s.detector == nil {
		return 0, ErrNotCalibrated
	}
	return s.detector.ScoreScratch(window, s.sc)
}

// AssessLink measures the link's mean multipath factor from n packets — the
// deployment-assessment metric of §IV-A (higher mean μ on a subcarrier
// flags destructive superposition, i.e. higher detection sensitivity).
func (s *System) AssessLink(n int) (meanMu float64, perSubcarrier []float64, err error) {
	if n < 1 {
		n = 1
	}
	meanMu, perSubcarrier, err = core.LinkMeanMu(s.extractor.CaptureN(n, nil), s.Scenario.Grid)
	if err != nil {
		return 0, nil, fmt.Errorf("mlink assess: %w", err)
	}
	return meanMu, perSubcarrier, nil
}
