package core

import (
	"fmt"
	"math"

	"mlink/internal/dsp"
)

// DriftState classifies how far a link's score statistics have walked from
// their reference null distribution.
type DriftState int

const (
	// DriftUnknown means the monitor has not yet seen enough samples.
	DriftUnknown DriftState = iota
	// DriftHealthy: the rolling window is statistically consistent with the
	// reference null distribution.
	DriftHealthy
	// DriftWarning: the window mean has shifted past the warn bound — the
	// empty-room baseline is walking and the profile should be refreshed.
	DriftWarning
	// DriftCritical: the shift has exceeded the quarantine bound for
	// several consecutive windows — adaptation is not keeping up (step
	// change, dead link) and the link needs recalibration.
	DriftCritical
)

// String names the drift state.
func (s DriftState) String() string {
	switch s {
	case DriftUnknown:
		return "unknown"
	case DriftHealthy:
		return "healthy"
	case DriftWarning:
		return "drifting"
	case DriftCritical:
		return "critical"
	default:
		return fmt.Sprintf("driftstate(%d)", int(s))
	}
}

// The drift test's operating point.
const (
	// driftWindow is the rolling score window length: 20 windows, 10 s of
	// monitoring at the paper's operating point.
	driftWindow = 20
	// driftMinSamples is how many scores must be observed before the
	// monitor leaves DriftUnknown: half a window.
	driftMinSamples = driftWindow / 2
	// driftWarnZ and driftCriticalZ bound the standardized shift of the
	// rolling mean, measured in units of the reference deviation σ₀.
	// Monitoring scores are autocorrelated, so these are effect sizes, not
	// √n-scaled test statistics — textbook 2σ bounds would trip on every
	// AGC wiggle.
	driftWarnZ, driftCriticalZ = 3, 8
	// driftCriticalPersist is how many consecutive over-critical windows
	// are required before the state becomes DriftCritical: a single outlier
	// window, or the transient before the first threshold rebase, must not
	// quarantine a link.
	driftCriticalPersist = 3
	// driftJumpZ separates step changes from walks: DriftCritical
	// additionally requires that some consecutive-window score increment
	// within the rolling window exceeded 6 σ₀. A person or moved cabinet
	// arrives as a jump; a thermal gain walk creeps in sub-σ increments and
	// classifies as DriftWarning no matter how far it has walked — warning
	// keeps adaptation tracking, critical quarantines.
	driftJumpZ = 6
)

// DriftStats is one snapshot of the monitor.
type DriftStats struct {
	// State is the classified drift condition.
	State DriftState
	// Z is the standardized shift of the rolling window mean against the
	// reference: (mean_w − μ₀) / σ₀.
	Z float64
	// ScoreZ is the latest single score's standardized deviation from the
	// reference — the fast signal the critical latch runs on (a person's
	// arrival shows here immediately, windows before the rolling mean
	// catches up).
	ScoreZ float64
	// RollingMean is the current window's mean score.
	RollingMean float64
	// RecentMean is the mean of the last few scores (≤5) — a nearly
	// lag-free estimate of the current baseline level that the adaptation
	// layer's tracking gate compares new scores against.
	RecentMean float64
	// RefMean and RefStd are the reference null-score statistics (μ₀, σ₀).
	RefMean, RefStd float64
	// MaxJumpZ is the largest consecutive-window score increment in the
	// rolling window, in σ₀ units — the step-vs-walk discriminator.
	MaxJumpZ float64
	// JumpExceeded reports MaxJumpZ ≥ the jump bound (6 σ₀): a
	// step-like arrival is in the recent history, so the adaptation layer
	// must not treat the current level as a trackable walk.
	JumpExceeded bool
	// Observed counts all scores seen.
	Observed uint64
}

// DriftMonitor implements the windowed score-statistics test that flags a
// walked empty-room baseline (§IV-C threshold assumptions + RASID §5.2):
// a reference null sample fixes (μ₀, σ₀); during monitoring the mean of the
// last driftWindow scores is standardized against that reference, and sustained
// shifts past the warn / critical bounds classify the link as drifting /
// needing recalibration. The adaptation layer Rebases the reference
// whenever it re-derives the threshold, so for an adapted link "critical"
// means scores have walked away from even the refreshed baseline.
//
// The monitor is not safe for concurrent use; callers (the adapt package)
// serialize Observe externally.
type DriftMonitor struct {
	refMean  float64
	refStd   float64
	ring     []float64
	jumps    []float64 // |Δscore| between consecutive windows, same ring
	prev     float64
	havePrev bool
	next     int
	full     bool
	sum      float64
	seen     uint64
	overCrit int
	latched  bool
	last     DriftStats
}

// refStats computes a floored (mean, std) reference from a null sample.
func refStats(refScores []float64) (mean, std float64, err error) {
	if len(refScores) < 2 {
		return 0, 0, fmt.Errorf("drift reference needs ≥2 null scores, got %d: %w", len(refScores), ErrBadInput)
	}
	for _, s := range refScores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return 0, 0, fmt.Errorf("non-finite reference score %v: %w", s, ErrBadInput)
		}
	}
	if mean, err = dsp.Mean(refScores); err != nil {
		return 0, 0, fmt.Errorf("drift reference: %w", err)
	}
	if std, err = dsp.StdDev(refScores); err != nil {
		return 0, 0, fmt.Errorf("drift reference: %w", err)
	}
	// Floor σ₀ so an unnaturally quiet calibration (short holdouts barely
	// explore the receiver's slow gain process) cannot make the test
	// infinitely touchy, and an all-identical sample cannot zero it.
	if floor := 0.1 * math.Abs(mean); std < floor {
		std = floor
	}
	if std == 0 {
		std = 1e-12
	}
	return mean, std, nil
}

// NewDriftMonitor builds a monitor referenced to the calibration-stage null
// scores (the same sample CalibrateThreshold consumes).
func NewDriftMonitor(refScores []float64) (*DriftMonitor, error) {
	mean, std, err := refStats(refScores)
	if err != nil {
		return nil, err
	}
	return &DriftMonitor{
		refMean: mean,
		refStd:  std,
		ring:    make([]float64, driftWindow),
		jumps:   make([]float64, driftWindow),
		last:    DriftStats{RefMean: mean, RefStd: std},
	}, nil
}

// Rebase replaces the reference statistics with those of a fresh null
// sample — the adaptation layer calls this when it re-derives the decision
// threshold, anchoring "drift" to the profile actually in use.
func (m *DriftMonitor) Rebase(refScores []float64) error {
	mean, std, err := refStats(refScores)
	if err != nil {
		return err
	}
	m.refMean, m.refStd = mean, std
	return nil
}

// Observe feeds one monitoring-window score into the rolling window and
// reclassifies the drift state. Non-finite scores are counted but excluded
// from the statistics.
func (m *DriftMonitor) Observe(score float64) {
	m.seen++
	if !math.IsNaN(score) && !math.IsInf(score, 0) {
		if m.full {
			m.sum -= m.ring[m.next]
		}
		m.ring[m.next] = score
		if m.havePrev {
			m.jumps[m.next] = math.Abs(score - m.prev)
		}
		m.prev = score
		m.havePrev = true
		m.sum += score
		m.next++
		if m.next == len(m.ring) {
			m.next = 0
			m.full = true
		}
	}

	st := DriftStats{RefMean: m.refMean, RefStd: m.refStd, Observed: m.seen}
	n := m.count()
	if n < driftMinSamples {
		st.State = DriftUnknown
		m.last = st
		return
	}
	st.RollingMean = m.sum / float64(n)
	st.Z = (st.RollingMean - m.refMean) / m.refStd
	st.ScoreZ = (m.prev - m.refMean) / m.refStd
	var maxJump float64
	for i := 0; i < n; i++ {
		if m.jumps[i] > maxJump {
			maxJump = m.jumps[i]
		}
	}
	st.MaxJumpZ = maxJump / m.refStd
	st.JumpExceeded = st.MaxJumpZ >= driftJumpZ
	recent := n
	if recent > 5 {
		recent = 5
	}
	for i := 1; i <= recent; i++ {
		st.RecentMean += m.ring[(m.next-i+len(m.ring))%len(m.ring)]
	}
	st.RecentMean /= float64(recent)

	// The critical latch runs on the per-score deviation (fast) and
	// requires BOTH a sustained excursion and a step-like jump in the
	// recent history; it then stays latched until the excursion subsides
	// (hysteresis), so a parked person stays critical even after their
	// arrival jump slides out of the ring. A jump-free sustained shift is a
	// walk: warning, never critical, however far it has walked — warning
	// keeps the adaptation layer tracking it.
	if math.Abs(st.ScoreZ) >= driftCriticalZ {
		m.overCrit++
	} else {
		m.overCrit = 0
	}
	if m.overCrit >= driftCriticalPersist && st.JumpExceeded {
		m.latched = true
	}
	if m.latched && math.Abs(st.ScoreZ) < driftWarnZ {
		m.latched = false
	}
	switch {
	case m.latched:
		st.State = DriftCritical
	case math.Abs(st.Z) >= driftWarnZ:
		st.State = DriftWarning
	default:
		st.State = DriftHealthy
	}
	m.last = st
}

// count returns how many samples the ring currently holds.
func (m *DriftMonitor) count() int {
	if m.full {
		return len(m.ring)
	}
	return m.next
}

// Snapshot returns the classification after the latest Observe.
func (m *DriftMonitor) Snapshot() DriftStats { return m.last }
