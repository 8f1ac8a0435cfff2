package core

import (
	"fmt"
	"math"
)

// LinkProfile is the mutable, adaptable view of a link's static profile. It
// keeps the original calibration Profile as an immutable reference and
// maintains a current Profile whose amplitude and RSS fingerprints are
// updated online by exponentially weighted moving averages over silent
// monitoring windows — the RASID-style profile refresh that lets a detector
// survive environment non-stationarity (slow gain walks, temperature drift,
// small furniture settles).
//
// Refresh is copy-on-write: every update allocates fresh mean rows and
// returns a brand-new *Profile, so scorers holding an older snapshot are
// never raced. The calibration-derived fields (Partials, PathWeights) are
// carried over by reference — the EWMA scheme adapts the amplitude
// fingerprints only; a walked angular profile is what quarantine and
// recalibration are for. A recalibration builds a whole new Profile (with
// fresh partials) through Calibrate.
type LinkProfile struct {
	orig  *Profile
	cur   *Profile
	alpha float64
	// refreshes counts applied updates.
	refreshes uint64
}

// DefaultProfileAlpha is the EWMA weight of one silent window's statistics.
// At the paper's operating point (25-packet windows at 50 pkt/s) 0.08 gives
// a ~6 s profile time constant: fast enough to track thermal gain walks,
// slow enough that a person lingering below threshold for one window cannot
// erase themselves from the reference.
const DefaultProfileAlpha = 0.08

// NewLinkProfile wraps a calibration profile for online adaptation.
// alpha ∈ (0, 1] is the EWMA weight of each new window (0 selects
// DefaultProfileAlpha).
func NewLinkProfile(p *Profile, alpha float64) (*LinkProfile, error) {
	if p == nil || len(p.MeanAmp) == 0 || len(p.MeanRSSdB) == 0 {
		return nil, fmt.Errorf("link profile needs a calibrated profile: %w", ErrBadInput)
	}
	if alpha == 0 {
		alpha = DefaultProfileAlpha
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("ewma alpha %v out of (0,1]: %w", alpha, ErrBadInput)
	}
	return &LinkProfile{orig: p, cur: p, alpha: alpha}, nil
}

// withFingerprints returns a new profile holding the given fingerprints and
// p's calibration-derived fields (partials, path weights), shared by
// reference.
func (p *Profile) withFingerprints(meanAmp, meanRSSdB [][]float64) *Profile {
	return &Profile{
		MeanAmp:     meanAmp,
		MeanRSSdB:   meanRSSdB,
		PathWeights: p.PathWeights,
		Partials:    p.Partials,
	}
}

// Original returns the immutable calibration-time profile.
func (lp *LinkProfile) Original() *Profile { return lp.orig }

// Current returns the latest adapted profile.
func (lp *LinkProfile) Current() *Profile { return lp.cur }

// Refreshes counts the EWMA updates applied so far.
func (lp *LinkProfile) Refreshes() uint64 { return lp.refreshes }

// Refresh folds one silent window's statistics into the profile:
//
//	mean ← (1−α)·mean + α·window
//
// applied to both the amplitude and RSS fingerprints, and returns the new
// immutable Profile (also retrievable via Current). The caller typically
// hands it straight to Detector.SetProfile.
func (lp *LinkProfile) Refresh(ws *WindowStats) (*Profile, error) {
	if ws == nil || len(ws.MeanAmp) == 0 {
		return nil, fmt.Errorf("refresh with empty window stats: %w", ErrBadInput)
	}
	if len(ws.MeanAmp) != len(lp.cur.MeanAmp) || len(ws.MeanAmp[0]) != len(lp.cur.MeanAmp[0]) {
		return nil, fmt.Errorf("window stats %dx%d differ from profile %dx%d: %w",
			len(ws.MeanAmp), len(ws.MeanAmp[0]),
			len(lp.cur.MeanAmp), len(lp.cur.MeanAmp[0]), ErrBadInput)
	}
	nAnt := len(lp.cur.MeanAmp)
	nSub := len(lp.cur.MeanAmp[0])
	next := lp.cur.withFingerprints(zeros2(nAnt, nSub), zeros2(nAnt, nSub))
	a := lp.alpha
	for ant := 0; ant < nAnt; ant++ {
		for k := 0; k < nSub; k++ {
			v := (1-a)*lp.cur.MeanAmp[ant][k] + a*ws.MeanAmp[ant][k]
			r := (1-a)*lp.cur.MeanRSSdB[ant][k] + a*ws.MeanRSSdB[ant][k]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(r) {
				return nil, fmt.Errorf("non-finite refresh at antenna %d subcarrier %d: %w", ant, k, ErrBadInput)
			}
			next.MeanAmp[ant][k] = v
			next.MeanRSSdB[ant][k] = r
		}
	}
	lp.cur = next
	lp.refreshes++
	return next, nil
}

// Adopt replaces the current fingerprints wholesale with one window's
// statistics — a Refresh with α = 1. It is the fleet layer's ambient-drift
// relock: when every link of a site moved together, the level the site sits
// at now *is* the empty room, and EWMA-walking towards it over dozens of
// windows would false-alarm the whole way. Like Refresh it is copy-on-write
// and carries the calibration-derived fields over by reference.
func (lp *LinkProfile) Adopt(ws *WindowStats) (*Profile, error) {
	if ws == nil || len(ws.MeanAmp) == 0 {
		return nil, fmt.Errorf("adopt with empty window stats: %w", ErrBadInput)
	}
	if len(ws.MeanAmp) != len(lp.cur.MeanAmp) || len(ws.MeanAmp[0]) != len(lp.cur.MeanAmp[0]) {
		return nil, fmt.Errorf("window stats %dx%d differ from profile %dx%d: %w",
			len(ws.MeanAmp), len(ws.MeanAmp[0]),
			len(lp.cur.MeanAmp), len(lp.cur.MeanAmp[0]), ErrBadInput)
	}
	nAnt := len(lp.cur.MeanAmp)
	nSub := len(lp.cur.MeanAmp[0])
	next := lp.cur.withFingerprints(zeros2(nAnt, nSub), zeros2(nAnt, nSub))
	for ant := 0; ant < nAnt; ant++ {
		for k := 0; k < nSub; k++ {
			v, r := ws.MeanAmp[ant][k], ws.MeanRSSdB[ant][k]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(r) {
				return nil, fmt.Errorf("non-finite adopt at antenna %d subcarrier %d: %w", ant, k, ErrBadInput)
			}
			next.MeanAmp[ant][k] = v
			next.MeanRSSdB[ant][k] = r
		}
	}
	lp.cur = next
	lp.refreshes++
	return next, nil
}

// ShiftDB measures how far the adapted profile has walked from the
// calibration-time original: the mean absolute per-subcarrier RSS change in
// dB across all antennas. It is the accumulated-adaptation counterpart of
// the DriftMonitor's score test — a detector that is tracking drift
// perfectly shows normal scores but a growing ShiftDB.
func (lp *LinkProfile) ShiftDB() float64 {
	var sum float64
	var n int
	for ant := range lp.cur.MeanRSSdB {
		for k := range lp.cur.MeanRSSdB[ant] {
			d := lp.cur.MeanRSSdB[ant][k] - lp.orig.MeanRSSdB[ant][k]
			if math.IsInf(d, 0) || math.IsNaN(d) {
				continue
			}
			sum += math.Abs(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
