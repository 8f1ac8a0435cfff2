package engine

import (
	"time"

	"mlink/internal/adapt"
)

// LinkMetrics is one link's monitoring state snapshot.
type LinkMetrics struct {
	// ID is the link's fleet ID.
	ID string
	// Calibrated reports whether the link has a detector.
	Calibrated bool
	// MeanMu is the link's mean multipath factor μ measured at calibration
	// (the §IV-A deployment-assessment metric; higher = more sensitive).
	MeanMu float64
	// Threshold is the current decision threshold (it moves over time when
	// adaptation is enabled).
	Threshold float64
	// WindowsScored counts scored monitoring windows.
	WindowsScored uint64
	// LastScore and MeanScore summarize the link's score stream.
	LastScore, MeanScore float64
	// Present is the link's latest verdict.
	Present bool
	// NsPerWindowEWMA is the link's smoothed scoring cost in nanoseconds
	// per window (EWMA, α = 1/8) — the per-link load signal: a link an
	// order of magnitude above its peers is the one keeping a shard busy
	// while the others take the rest of the run queue.
	NsPerWindowEWMA float64
	// Adaptive reports whether the link runs an adaptation loop.
	Adaptive bool
	// Recalibrating reports an online recalibration in progress on the
	// shard holding the link (the link is excluded from fusion until it
	// ends).
	Recalibrating bool
	// Health is the link's adaptation snapshot (zero value when Adaptive is
	// false). Its Lifecycle field mirrors the Lifecycle below.
	Health adapt.Health
	// Lifecycle is the link's supervised connectivity state
	// (LifecycleUnsupervised when supervision is off or Run is not active).
	Lifecycle adapt.Lifecycle
	// SourceDrops counts frames shed by the link's ingest ring, and
	// Reconnects successful source redials (both zero without supervision).
	SourceDrops uint64
	Reconnects  uint64
}

// ShardMetrics is one scoring shard's scheduler counters, cumulative across
// Runs (shards persist between Runs; counters reset only when the shard set
// is rebuilt for a different worker count).
type ShardMetrics struct {
	// WindowsScored counts windows this shard scored, whichever links they
	// came from.
	WindowsScored uint64
	// Steals counts the windows this shard scored of a link whose previous
	// window another shard scored: migrations onto this shard.
	Steals uint64
	// Utilization is the fraction of active Run time this shard spent
	// scoring windows rather than waiting for a link or backing off — the
	// load-balance signal: shards taking from one run queue sit close
	// together, and a wide spread means links, not shards, are scarce.
	Utilization float64
}

// Metrics is a consistent-enough snapshot of the engine's counters.
type Metrics struct {
	// Links is the fleet size.
	Links int
	// WindowsScored and FramesSeen count fleet-wide work.
	WindowsScored uint64
	FramesSeen    uint64
	// ScoresPerSec is windows scored per second of active Run time (0 before
	// the first Run).
	ScoresPerSec float64
	// Steals counts link migrations between shards (sum over Shards): the
	// windows scored by a shard other than the one that scored the link's
	// previous window. With one run queue that is most windows of a
	// multi-shard run.
	Steals uint64
	// Rounds counts closed fusion rounds (the id of the latest one).
	Rounds uint64
	// PerLink holds one entry per link in registration order.
	PerLink []LinkMetrics
	// Shards holds one entry per scoring shard.
	Shards []ShardMetrics
}

// Metrics snapshots the engine's counters and per-link state.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	e.MetricsInto(&m)
	return m
}

// MetricsInto is Metrics reusing the caller's struct — in particular its
// PerLink slice — so a steady-state report loop polls the engine without
// allocating. Per-link state is read from the links' lock-free published
// snapshots: a Metrics poll never blocks a scoring shard.
func (e *Engine) MetricsInto(m *Metrics) {
	perLink := m.PerLink[:0]
	shards := m.Shards[:0]
	var snap linkSnap
	e.mu.Lock()
	active := time.Duration(e.runNanos.Load())
	if e.running {
		active += time.Since(e.runStart)
	}
	m.Links = len(e.links)
	m.WindowsScored = e.windowsScored.Load()
	m.FramesSeen = e.framesSeen.Load()
	m.ScoresPerSec = 0
	if secs := active.Seconds(); secs > 0 {
		m.ScoresPerSec = float64(m.WindowsScored) / secs
	}
	m.Steals = 0
	m.Rounds = e.rounds.closed.Load()
	for _, sh := range e.shards {
		sm := ShardMetrics{
			WindowsScored: sh.windows.Load(),
			Steals:        sh.steals.Load(),
		}
		if active > 0 {
			sm.Utilization = float64(sh.busyNs.Load()) / float64(active)
			if sm.Utilization > 1 {
				sm.Utilization = 1
			}
		}
		m.Steals += sm.Steals
		shards = append(shards, sm)
	}
	for _, l := range e.links {
		l.state.load(&snap)
		lm := LinkMetrics{
			ID:              l.id,
			Calibrated:      snap.Calibrated,
			MeanMu:          snap.MeanMu,
			Threshold:       snap.Threshold,
			WindowsScored:   snap.Windows,
			LastScore:       snap.Last.Score,
			NsPerWindowEWMA: snap.NsPerWindowEWMA,
			Present:         snap.Last.Present,
			Adaptive:        snap.Adaptive,
			Recalibrating:   snap.Recalibrating,
			Health:          snap.Health,
		}
		if snap.Windows > 0 {
			lm.MeanScore = snap.ScoreSum / float64(snap.Windows)
		}
		if l.sup != nil {
			st := l.sup.Status()
			lm.SourceDrops = st.Drops
			lm.Reconnects = st.Reconnects
			if e.running {
				lm.Lifecycle = st.Lifecycle
				lm.Health.Lifecycle = st.Lifecycle
			}
		}
		perLink = append(perLink, lm)
	}
	e.mu.Unlock()
	m.PerLink = perLink
	m.Shards = shards
}
