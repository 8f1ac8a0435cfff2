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
// NewEngine and cmd/mlink-serve). A System runs its link on a one-link
// engine, so both share one calibration recipe (static profile, threshold
// from held-out self scores, adapter seeded from the same scores) and one
// scoring path.
//
// Lower-level building blocks live in the internal packages: propagation
// (ray tracing), csi (Intel-5300-style extraction), core (multipath factor,
// subcarrier and path weighting, detector), engine (concurrent multi-link
// monitoring), music (AoA), csinet (distributed collection), scenario (the
// paper's testbeds), experiments (figure-by-figure reproduction).
package mlink

import (
	"context"
	"fmt"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/engine"
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

// ErrNotCalibrated is returned when detection (System) or monitoring
// (Engine.Run) is attempted on a link before it is calibrated.
var ErrNotCalibrated = engine.ErrNotCalibrated

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

// System binds one simulated link to a one-link Engine (the same
// calibration, scoring and adaptation code a fleet runs): the one-stop entry
// point for examples and quick experiments. A System is not safe for
// concurrent use: its extractor is single-goroutine state.
type System struct {
	Scenario  *scenario.Scenario
	extractor *csi.Extractor
	cfg       core.Config
	eng       *engine.Engine
	// m is the metrics buffer the link state is read through.
	m EngineMetrics
}

// systemLink is the ID of a System's one link in its engine.
const systemLink = "link"

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
	sys := &System{
		Scenario:  s,
		extractor: x,
		cfg:       core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets()),
		eng:       engine.New(engine.Config{Workers: 1}),
	}
	if err := sys.eng.AddLink(systemLink, sys.cfg, newPhasedSource(sys, nil)); err != nil {
		return nil, fmt.Errorf("mlink: %w", err)
	}
	return sys, nil
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

// Calibrate captures n empty-room packets (at least 50), builds the static
// profile, and calibrates a decision threshold from n held-out packets' self
// scores (§IV-C calibration stage); with adaptation enabled it also seeds
// the adapter from those scores. It must be called before DetectPresence or
// DetectWindow. A re-calibration keeps the previous threshold as a floor,
// as Engine.Recalibrate does.
func (s *System) Calibrate(n int) error {
	if err := s.eng.Calibrate(context.Background(), n); err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	return nil
}

// EnableAdaptation turns on online adaptation for this link from the next
// Calibrate on: every window passed through DetectPresence or DetectWindow
// then refreshes the profile when confidently empty, re-derives the
// threshold, and tracks drift health. Call it before Calibrate, as on
// Engine.
func (s *System) EnableAdaptation() error {
	if err := s.eng.SetAdaptation(&adapt.Policy{}); err != nil {
		return fmt.Errorf("mlink: %w", err)
	}
	return nil
}

// link reads the System's link state from its engine.
func (s *System) link() *LinkMetrics {
	s.eng.MetricsInto(&s.m)
	return &s.m.PerLink[0]
}

// Health returns the link's adaptation snapshot (the zero value when
// adaptation is disabled or the system is not calibrated).
func (s *System) Health() LinkHealth { return s.link().Health }

// Threshold returns the current decision threshold (0 before Calibrate).
// With adaptation enabled it moves as windows are scored.
func (s *System) Threshold() float64 { return s.link().Threshold }

// DetectPresence captures a monitoring window of n packets with the given
// people present (nil for an empty room) and returns the verdict.
func (s *System) DetectPresence(n int, people ...*Person) (Decision, error) {
	if !s.link().Calibrated {
		return Decision{}, ErrNotCalibrated
	}
	return s.DetectWindow(s.CaptureWindow(n, people...))
}

// DetectWindow scores an externally collected window (e.g. frames received
// over csinet) against the threshold and, when adaptation is enabled, feeds
// the outcome to the adaptation loop.
func (s *System) DetectWindow(window []*Frame) (Decision, error) {
	dec, err := s.eng.ScoreWindow(systemLink, window)
	if err != nil {
		return Decision{}, fmt.Errorf("mlink detect: %w", err)
	}
	return dec, nil
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
