package experiments

import (
	"fmt"
	"math/rand"

	"mlink/internal/body"
	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/eval"
	"mlink/internal/geom"
	"mlink/internal/scenario"
)

// Schemes lists the three detection variants compared throughout §V.
var Schemes = []core.Scheme{core.SchemeBaseline, core.SchemeSubcarrier, core.SchemeSubcarrierPath}

// DetectionSample is one scored monitoring window with its ground truth and
// geometry metadata (distance/angle feed Figs. 9 and 11).
type DetectionSample struct {
	Case         int
	Scheme       core.Scheme
	Score        float64
	Positive     bool
	DistanceToRX float64
	AngleDeg     float64
}

// CampaignConfig sizes a detection measurement campaign.
type CampaignConfig struct {
	// Cases are the Fig. 6 link cases to include (1-based).
	Cases []int
	// Sessions is the number of repeated measurement sessions per case
	// (the paper repeats day/night and after two weeks).
	Sessions int
	// CalibrationPackets is N, the calibration sample count.
	CalibrationPackets int
	// WindowPackets is M, the monitoring window size (25 ≈ 0.5 s at
	// 50 pkt/s).
	WindowPackets int
	// WindowsPerLocation is how many monitoring windows each presence
	// location contributes.
	WindowsPerLocation int
	// BackgroundPeople is the number of distant students moving during the
	// measurements.
	BackgroundPeople int
	// Seed drives all randomness.
	Seed int64
}

// DefaultCampaignConfig returns a campaign matching the paper's setup at a
// simulation-friendly scale.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Cases:              []int{1, 2, 3, 4, 5},
		Sessions:           2,
		CalibrationPackets: 150,
		WindowPackets:      25,
		WindowsPerLocation: 2,
		BackgroundPeople:   3,
		Seed:               1,
	}
}

// Campaign holds scored samples for every scheme and case.
type Campaign struct {
	Samples []DetectionSample
}

// sessionDetectors calibrates one detector per scheme on shared calibration
// frames.
func sessionDetectors(s *scenario.Scenario, cal []*csi.Frame) (map[core.Scheme]*core.Detector, error) {
	out := make(map[core.Scheme]*core.Detector, len(Schemes))
	for _, scheme := range Schemes {
		cfg := core.DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
		profile, err := core.Calibrate(cfg, cal)
		if err != nil {
			return nil, fmt.Errorf("calibrate %v: %w", scheme, err)
		}
		det, err := core.NewDetector(cfg, profile)
		if err != nil {
			return nil, fmt.Errorf("detector %v: %w", scheme, err)
		}
		out[scheme] = det
	}
	return out, nil
}

// scoreWindow scores one window under every scheme with a shared scratch
// and appends samples.
func (c *Campaign) scoreWindow(dets map[core.Scheme]*core.Detector, window []*csi.Frame, tmpl DetectionSample, sc *core.Scratch) error {
	for _, scheme := range Schemes {
		score, err := dets[scheme].ScoreScratch(window, sc)
		if err != nil {
			return fmt.Errorf("score %v: %w", scheme, err)
		}
		s := tmpl
		s.Scheme = scheme
		s.Score = score
		c.Samples = append(c.Samples, s)
	}
	return nil
}

// newBackground builds the session's background dynamics.
func newBackground(s *scenario.Scenario, people int, rng *rand.Rand) (*scenario.Background, error) {
	bg, err := scenario.NewBackground(people, scenario.DefaultAnchors(s), rng)
	if err != nil {
		return nil, err
	}
	// §V-A dynamics: students occasionally walk around their desks.
	bg.StepSigma = 0.03
	bg.Tether = 0.8
	bg.WalkProb = 0.05
	return bg, nil
}

// runSession executes one measurement session of one case. Calibration and
// monitoring happen in *different* jittered sub-sessions — the paper pauses
// five minutes between captures and repeats campaigns day/night and two
// weeks apart, so the static profile never perfectly matches the monitored
// channel. That temporal drift (plus background dynamics) is what limits
// the baseline.
func (c *Campaign) runSession(s *scenario.Scenario, cfg CampaignConfig, caseID int, session int64, locations []geom.Point) error {
	rng := rand.New(rand.NewSource(cfg.Seed*101 + int64(caseID)*13 + session))
	// One frame pool and scoring scratch serve the whole session: the
	// calibration frames are recycled once the profiles are built (a profile
	// keeps covariance partials, not frames), and every captured monitoring
	// window once it is scored.
	pool := csi.NewFramePool(len(s.Env.RX.Elements), s.Grid.Len())
	sc := core.NewScratch()

	calSess, err := s.NewSession(session * 1000)
	if err != nil {
		return err
	}
	calX, err := calSess.NewExtractor(session * 17)
	if err != nil {
		return err
	}
	calBg, err := newBackground(calSess, cfg.BackgroundPeople, rng)
	if err != nil {
		return err
	}
	cal, err := capturePooledWindow(calX, pool, cfg.CalibrationPackets, nil, calBg)
	if err != nil {
		return err
	}
	dets, err := sessionDetectors(calSess, cal)
	if err != nil {
		return err
	}
	recycleWindow(pool, cal)

	for li, loc := range locations {
		// Each location is measured in its own drifted sub-session.
		monSess, err := s.NewSession(session*1000 + int64(li) + 1)
		if err != nil {
			return err
		}
		monX, err := monSess.NewExtractor(session*17 + int64(li) + 1)
		if err != nil {
			return err
		}
		bg, err := newBackground(monSess, cfg.BackgroundPeople, rng)
		if err != nil {
			return err
		}
		rx := monSess.RXCenter()
		rel := monSess.Env.RX.RelativeAngle(loc.Sub(rx).Angle())
		tmpl := DetectionSample{
			Case:         caseID,
			Positive:     true,
			DistanceToRX: loc.Dist(rx),
			AngleDeg:     geom.RadToDeg(rel),
		}
		for w := 0; w < cfg.WindowsPerLocation; w++ {
			window, err := capturePooledJitteredWindow(monX, pool, cfg.WindowPackets, body.Default(loc), 0.015, bg, rng)
			if err != nil {
				return err
			}
			if err := c.scoreWindow(dets, window, tmpl, sc); err != nil {
				return err
			}
			recycleWindow(pool, window)
		}
		// Matched negative windows from the same drifted session.
		for w := 0; w < cfg.WindowsPerLocation; w++ {
			window, err := capturePooledWindow(monX, pool, cfg.WindowPackets, nil, bg)
			if err != nil {
				return err
			}
			if err := c.scoreWindow(dets, window, DetectionSample{Case: caseID}, sc); err != nil {
				return err
			}
			recycleWindow(pool, window)
		}
	}
	return nil
}

// RunCampaign executes the full §V-A campaign over the configured link
// cases with the 3×3 presence grids.
func RunCampaign(cfg CampaignConfig) (*Campaign, error) {
	if len(cfg.Cases) == 0 || cfg.Sessions <= 0 || cfg.WindowPackets <= 0 {
		return nil, fmt.Errorf("campaign config %+v: %w", cfg, core.ErrBadInput)
	}
	c := &Campaign{}
	for _, caseID := range cfg.Cases {
		s, err := scenario.LinkCase(caseID, cfg.Seed+int64(caseID))
		if err != nil {
			return nil, err
		}
		for sess := int64(1); sess <= int64(cfg.Sessions); sess++ {
			if err := c.runSession(s, cfg, caseID, sess, s.Grid3x3()); err != nil {
				return nil, fmt.Errorf("case %d session %d: %w", caseID, sess, err)
			}
		}
	}
	return c, nil
}

// SchemeSamples extracts one scheme's samples as eval samples.
func (c *Campaign) SchemeSamples(scheme core.Scheme) []eval.Sample {
	var out []eval.Sample
	for _, s := range c.Samples {
		if s.Scheme != scheme {
			continue
		}
		out = append(out, eval.Sample{Score: s.Score, Positive: s.Positive})
	}
	return out
}

// FilterCase returns a campaign view restricted to one link case.
func (c *Campaign) FilterCase(caseID int) *Campaign {
	out := &Campaign{}
	for _, s := range c.Samples {
		if s.Case == caseID {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}
