package mlink

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/engine"
	"mlink/internal/fleet"
	"mlink/internal/scenario"
	"mlink/internal/serve"
	"mlink/internal/supervise"
)

// Fleet-level types, re-exported from the internal engine so facade users
// can monitor many links without reaching into internal packages.
type (
	// SiteVerdict is the fused presence verdict over all monitored links.
	SiteVerdict = engine.SiteVerdict
	// LinkDecision pairs a link ID with its latest decision, fusion weight
	// and adaptation health.
	LinkDecision = engine.LinkDecision
	// FusionPolicy combines per-link decisions into a site verdict.
	FusionPolicy = engine.FusionPolicy
	// KOfN fuses by counting positive links against a threshold K.
	KOfN = engine.KOfN
	// WeightedKOfN fuses by quality-weighted voting: link votes carry the
	// characterized mean multipath factor μ scaled by adaptation health.
	WeightedKOfN = engine.WeightedKOfN
	// MaxScore fuses by the maximum threshold-normalized link score.
	MaxScore = engine.MaxScore
	// EngineMetrics snapshots the engine's counters.
	EngineMetrics = engine.Metrics
	// LinkMetrics is one link's slice of the metrics block.
	LinkMetrics = engine.LinkMetrics
	// LinkHealth is a link's adaptation status snapshot.
	LinkHealth = adapt.Health
	// HealthState classifies a link's adaptation health.
	HealthState = adapt.State
	// DriftPreset parameterizes a first-class environment-drift scenario.
	DriftPreset = scenario.DriftPreset
	// FleetState classifies the site's cross-link drift evidence.
	FleetState = fleet.State
	// FleetReport is one coordination tick's classification and counters.
	FleetReport = fleet.Report
	// JournalConfig parameterizes crash-safe online persistence
	// (EnableJournal): the fsync cadence.
	JournalConfig = fleet.JournalConfig
	// SupervisionPolicy parameterizes per-link source supervision
	// (EnableSupervision): ring size, staleness and down thresholds,
	// reconnect backoff (the zero value selects the documented defaults).
	SupervisionPolicy = supervise.Policy
	// LinkLifecycle is a supervised link's connectivity state.
	LinkLifecycle = adapt.Lifecycle
	// Coverage reports how much of the fleet stood behind a SiteVerdict.
	Coverage = engine.Coverage
	// ChaosConfig parameterizes deterministic fault injection for a
	// chaos-wrapped link (AddChaosLink).
	ChaosConfig = scenario.ChaosConfig
	// ChaosSource is the fault-injecting source AddChaosLink returns; drive
	// it with Arm/Stall/Resume and read ground truth from Stats.
	ChaosSource = scenario.ChaosSource
	// ChaosStats counts the faults a ChaosSource actually injected.
	ChaosStats = scenario.ChaosStats
)

// Re-exported fleet classifications.
const (
	FleetQuiet      = fleet.StateQuiet
	FleetLocalized  = fleet.StateLocalized
	FleetAmbient    = fleet.StateAmbient
	FleetStepChange = fleet.StateStepChange
)

// Re-exported adaptation health states.
const (
	HealthUnknown     = adapt.StateUnknown
	HealthHealthy     = adapt.StateHealthy
	HealthDrifting    = adapt.StateDrifting
	HealthQuarantined = adapt.StateQuarantined
)

// Re-exported supervised link lifecycle states.
const (
	LinkUnsupervised = adapt.LifecycleUnsupervised
	LinkLive         = adapt.LifecycleLive
	LinkStale        = adapt.LifecycleStale
	LinkDown         = adapt.LifecycleDown
	LinkRecovering   = adapt.LifecycleRecovering
)

// Drift presets for simulated links (see internal/scenario).
var (
	// NoDrift is the control preset: capture impairments only.
	NoDrift = scenario.NoDrift
	// GainWalkDrift ramps receive gain linearly (dB per minute).
	GainWalkDrift = scenario.GainWalk
	// CFOWalkDrift models temperature-like oscillator drift.
	CFOWalkDrift = scenario.CFOWalk
	// FurnitureMoveDrift is a step change at the given packet.
	FurnitureMoveDrift = scenario.FurnitureMove
	// AmbientSiteDrift is the correlated site-wide preset (gain walk + AGC
	// re-lock step); apply the same preset to every link of a site.
	AmbientSiteDrift = scenario.AmbientDrift
)

// EngineConfig parameterizes a multi-link Engine. Online adaptation is
// turned on with EnableAdaptation.
type EngineConfig struct {
	// Workers bounds the calibration and scoring pools (0 = GOMAXPROCS).
	Workers int
	// WindowSize is the monitoring window in packets (0 = 25).
	WindowSize int
	// Fusion is the site-verdict policy (nil = KOfN{K: 1}).
	Fusion FusionPolicy
	// OnDecision, when non-nil, observes every scored window. It is called
	// from scoring workers and must be safe for concurrent use.
	OnDecision func(linkID string, d Decision)
	// OnRound, when non-nil, receives the fused verdict of every closed
	// fusion round (v.Round is its id), one call at a time and without
	// engine locks held. The verdict is engine-owned and valid only during
	// the call. A round waits for every link that is live, not retired and
	// not recalibrating to score a window.
	OnRound func(v *SiteVerdict)
}

// Engine monitors a fleet of links concurrently: per-link calibration on a
// bounded worker pool, streaming window scoring, optional online
// adaptation, and fused site verdicts — the deployment-scale counterpart of
// the single-link System.
type Engine struct {
	eng      *engine.Engine
	sourceBy map[string]phasedSwitch

	// coord is the fleet coordinator EnableFleet attaches; it observes the
	// verdict of every closed fusion round.
	coord atomic.Pointer[fleet.Coordinator]

	// journal is the crash-safe online persistence attached by EnableJournal
	// (nil when journaling is off).
	journal *fleet.Journal

	// hub is the lazily-started SSE broadcast hub (Subscribe/Handler/Serve),
	// nudged once per closed fusion round.
	hub     atomic.Pointer[serve.Hub]
	hubOnce sync.Once
}

// phasedSwitch is a source whose occupancy activates once calibration ends.
type phasedSwitch interface{ setMonitoring(bool) }

// NewEngine builds an empty fleet engine.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{sourceBy: make(map[string]phasedSwitch)}
	userCb := cfg.OnRound
	e.eng = engine.New(engine.Config{
		Workers:    cfg.Workers,
		WindowSize: cfg.WindowSize,
		Fusion:     cfg.Fusion,
		OnDecision: cfg.OnDecision,
		OnRound: func(v *SiteVerdict) {
			if userCb != nil {
				userCb(v)
			}
			if c := e.coord.Load(); c != nil {
				c.Observe(v)
			}
			if h := e.hub.Load(); h != nil {
				h.Notify()
			}
		},
	})
	return e
}

// EnableFleet turns on cross-link drift coordination: each fused round the
// coordinator classifies the site (quiet / localized / ambient-drift /
// step-change) and drives per-link suppression, baseline relocks and
// staggered online recalibrations through the engine. Requires adaptation
// (EnableAdaptation) for the per-link controls to have anything to act on;
// call before Run.
func (e *Engine) EnableFleet() error {
	e.coord.Store(fleet.New(e.eng))
	return nil
}

// FleetReport returns the fleet coordinator's latest classification and
// action counters; ok is false when EnableFleet was never called.
func (e *Engine) FleetReport() (FleetReport, bool) {
	coord := e.coord.Load()
	if coord == nil {
		return FleetReport{}, false
	}
	return coord.Report(), true
}

// EnableJournal attaches crash-safe online persistence: dir's journal is
// opened (recovering from any previous crash — torn tails are detected and
// truncated), every registered link with journaled state is restored to its
// last synced window, and from the next Run on the engine streams profile
// refreshes, threshold re-derivations and drift state into the journal,
// fsynced on the configured cadence. A daemon killed at any moment resumes
// its walked baselines bit-for-bit with at most SyncEvery of loss.
//
// Returns the IDs restored; follow with CalibrateMissing for links that had
// no journaled state. Call with the engine stopped, and CloseJournal (or
// nothing — a crash is the designed-for case) when done. This is the one
// persistence recipe: EnableJournal, CalibrateMissing, Run, CloseJournal.
// A link calibrated but never scored journals nothing (its first full
// record is emitted at its first scored window), so it recalibrates on the
// next start. A directory of .mlprofile snapshots with no journal file
// restores unchanged.
func (e *Engine) EnableJournal(dir string, config ...JournalConfig) ([]string, error) {
	cfg := JournalConfig{}
	if len(config) > 0 {
		cfg = config[0]
	}
	if e.journal != nil {
		return nil, fmt.Errorf("mlink journal: already enabled")
	}
	j, err := fleet.OpenJournal(dir, cfg)
	if err != nil {
		return nil, fmt.Errorf("mlink journal: %w", err)
	}
	restored, err := j.Restore(e.eng)
	if err != nil {
		j.Close()
		return restored, fmt.Errorf("mlink journal: %w", err)
	}
	if err := e.eng.SetJournal(j); err != nil {
		j.Close()
		return restored, fmt.Errorf("mlink journal: %w", err)
	}
	e.enterMonitoring(restored)
	e.journal = j
	return restored, nil
}

// CloseJournal detaches the journal and compacts it into plain profile
// snapshots — the clean-shutdown path. The engine must be stopped. A no-op
// when no journal is enabled.
func (e *Engine) CloseJournal() error {
	if e.journal == nil {
		return nil
	}
	if err := e.eng.SetJournal(nil); err != nil {
		return fmt.Errorf("mlink journal: %w", err)
	}
	j := e.journal
	e.journal = nil
	if err := j.Close(); err != nil {
		return fmt.Errorf("mlink journal: %w", err)
	}
	return nil
}

// CalibrateMissing calibrates only the links that are not calibrated yet —
// the companion of EnableJournal for mixed fleets — then switches every
// link's people in for monitoring. A no-op when nothing is missing.
func (e *Engine) CalibrateMissing(n int) error {
	if err := e.eng.CalibrateMissing(context.Background(), n); err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	e.enterMonitoring(e.Links())
	return nil
}

// EnableAdaptation turns on per-link online adaptation (profile refresh,
// threshold re-derivation, drift quarantine) for links calibrated from here
// on, at the one operating point internal/adapt fixes. Call it before
// Calibrate. Rejected while the engine is running.
func (e *Engine) EnableAdaptation() error {
	if err := e.eng.SetAdaptation(&adapt.Policy{}); err != nil {
		return fmt.Errorf("mlink: %w", err)
	}
	return nil
}

// EnableSupervision turns on per-link source supervision for the next Run:
// each link gets a producer goroutine pulling frames from its source into a
// bounded ring, a Live/Stale/Down/Recovering lifecycle with jittered
// exponential-backoff reconnects, and staleness-aware fusion — a stalled or
// dead source degrades that one link's coverage instead of stalling its
// shard siblings. With no argument the default policy is used. Rejected
// while the engine is running; EnableSupervision(SupervisionPolicy{}) after
// a stop reconfigures, and there is no way to un-supervise short of a new
// engine (nor a reason to).
func (e *Engine) EnableSupervision(policy ...SupervisionPolicy) error {
	p := SupervisionPolicy{}
	if len(policy) > 0 {
		p = policy[0]
	}
	if err := e.eng.SetSupervision(&p); err != nil {
		return fmt.Errorf("mlink: %w", err)
	}
	return nil
}

// AddChaosLink is AddLink with deterministic fault injection wrapped around
// the link's source: stalls, slow drip, mid-stream EOFs, flapping
// reconnects, drop bursts, torn messages — the misbehaviours a supervised
// fleet must degrade through. The returned ChaosSource is unarmed (the link
// behaves normally, including during calibration) until Arm(true). Use with
// EnableSupervision; without it a stalling chaos link stalls its shard, by
// design.
func (e *Engine) AddChaosLink(id string, sys *System, chaos ChaosConfig, people ...*Person) (*ChaosSource, error) {
	if sys == nil {
		return nil, fmt.Errorf("mlink: nil system for link %q", id)
	}
	inner := newPhasedSource(sys, people)
	src := scenario.NewChaosSource(inner, chaos)
	if err := e.register(id, sys, src, inner); err != nil {
		return nil, err
	}
	return src, nil
}

// register adds a link reading src to the engine; sw switches the link's
// people in once it enters monitoring.
func (e *Engine) register(id string, sys *System, src engine.Source, sw phasedSwitch) error {
	if err := e.eng.AddLink(id, sys.cfg, src); err != nil {
		return fmt.Errorf("mlink: %w", err)
	}
	e.sourceBy[id] = sw
	return nil
}

// enterMonitoring switches the people of the given links into their rooms:
// those links' baselines are in place, so their captures now monitor.
func (e *Engine) enterMonitoring(ids []string) {
	for _, id := range ids {
		if sw, ok := e.sourceBy[id]; ok {
			sw.setMonitoring(true)
		}
	}
}

// phasedSource streams simulated captures from a System, with the link's
// people entering the room only once calibration has finished — the §IV-C
// calibration stage is an empty room by definition. Frames are drawn from a
// pool and written via the allocation-free CaptureInto path; the engine
// recycles them after scoring.
type phasedSource struct {
	sys    *System
	bodies []body.Body
	// monitoring is atomic because Recalibrate may flip occupancy from the
	// caller's goroutine while the owning shard is mid-Next (online
	// recalibration during Run).
	monitoring atomic.Bool
	pool       *csi.FramePool
}

func newPhasedSource(sys *System, people []*Person) *phasedSource {
	return &phasedSource{
		sys:    sys,
		bodies: bodiesOf(people),
		pool:   csi.NewFramePool(len(sys.extractor.Env.RX.Elements), sys.extractor.Grid.Len()),
	}
}

func (s *phasedSource) Next() (*Frame, error) {
	bodies := s.bodies
	if !s.monitoring.Load() {
		bodies = nil
	}
	f := s.pool.Get()
	if err := s.sys.extractor.CaptureInto(f, bodies); err != nil {
		s.pool.Put(f)
		return nil, err
	}
	return f, nil
}

// Recycle implements engine.FrameRecycler.
func (s *phasedSource) Recycle(f *Frame) { s.pool.Put(f) }

func (s *phasedSource) setMonitoring(on bool) { s.monitoring.Store(on) }

// phasedDriftSource is phasedSource over a drifting capture stream.
type phasedDriftSource struct {
	stream     *scenario.DriftStream
	bodies     []body.Body
	monitoring atomic.Bool
}

func (s *phasedDriftSource) Next() (*Frame, error) {
	if s.monitoring.Load() {
		s.stream.SetBodies(s.bodies)
	} else {
		s.stream.SetBodies(nil)
	}
	return s.stream.Next()
}

// Recycle implements engine.FrameRecycler.
func (s *phasedDriftSource) Recycle(f *Frame) { s.stream.Recycle(f) }

func (s *phasedDriftSource) setMonitoring(on bool) { s.monitoring.Store(on) }

// AddLink adopts a System as one monitored link under a unique ID. The
// engine owns the system's extractor from here on — don't keep capturing
// through the System concurrently. People, if given, stand in the room for
// every capture after calibration (an occupied link); none means an empty
// room.
func (e *Engine) AddLink(id string, sys *System, people ...*Person) error {
	if sys == nil {
		return fmt.Errorf("mlink: nil system for link %q", id)
	}
	src := newPhasedSource(sys, people)
	return e.register(id, sys, src, src)
}

// AddDriftLink adopts a System as a monitored link whose environment drifts
// per the preset (gain walk, CFO walk, furniture move) — the adversarial
// scenarios EnableAdaptation exists for. People, if given, enter after
// calibration, as in AddLink.
func (e *Engine) AddDriftLink(id string, sys *System, preset DriftPreset, people ...*Person) error {
	if sys == nil {
		return fmt.Errorf("mlink: nil system for link %q", id)
	}
	stream, err := sys.Scenario.NewDriftStream(preset, 1)
	if err != nil {
		return fmt.Errorf("mlink: drift link %q: %w", id, err)
	}
	src := &phasedDriftSource{stream: stream, bodies: bodiesOf(people)}
	return e.register(id, sys, src, src)
}

// Links lists the fleet's link IDs in registration order.
func (e *Engine) Links() []string { return e.eng.Links() }

// Calibrate calibrates every link in parallel from n empty-room packets
// each (plus n held-out packets for threshold calibration). On success the
// links' people, if any, enter their rooms for subsequent monitoring.
func (e *Engine) Calibrate(n int) error {
	if err := e.eng.Calibrate(context.Background(), n); err != nil {
		return fmt.Errorf("mlink calibrate: %w", err)
	}
	e.enterMonitoring(e.Links())
	return nil
}

// Recalibrate rebuilds one link's profile, threshold and adapter from a
// fresh empty-room capture — the recovery path for a link whose health
// reports NeedsRecalibration. The caller asserts the room is empty again:
// for simulated links the source is switched back to its calibration phase
// (people leave) for the duration, exactly as during Calibrate, and
// re-enters monitoring afterwards.
//
// While Run is active the rebuild happens online, on the shard that owns the
// link: sibling links keep scoring throughout, and the call blocks until the
// link's fresh baseline is in place. (A window or two captured before the
// shard picks the request up may still score with people present — they
// read as ordinary occupied windows, never as calibration data.)
func (e *Engine) Recalibrate(linkID string, n int) error {
	if src, ok := e.sourceBy[linkID]; ok {
		src.setMonitoring(false)
		defer src.setMonitoring(true)
	}
	if err := e.eng.Recalibrate(context.Background(), linkID, n); err != nil {
		return fmt.Errorf("mlink recalibrate: %w", err)
	}
	return nil
}

// Run monitors the fleet until every link has scored windowsPerLink windows
// (0 = until ctx is cancelled or the sources end).
func (e *Engine) Run(ctx context.Context, windowsPerLink int) error {
	if err := e.eng.Run(ctx, windowsPerLink); err != nil {
		return fmt.Errorf("mlink run: %w", err)
	}
	return nil
}

// Verdict fuses the latest per-link decisions into the site verdict. Each
// LinkDecision carries the link's fusion weight and adaptation health.
func (e *Engine) Verdict() (SiteVerdict, error) {
	v, err := e.eng.Verdict()
	if err != nil {
		return SiteVerdict{}, fmt.Errorf("mlink verdict: %w", err)
	}
	return v, nil
}

// VerdictInto is Verdict reusing the caller's SiteVerdict (notably its Links
// slice), so a steady-state report loop fuses the fleet without allocating.
// Safe to call while the engine runs: link state is read from lock-free
// snapshots and never blocks the scoring shards.
func (e *Engine) VerdictInto(v *SiteVerdict) error {
	if err := e.eng.VerdictInto(v); err != nil {
		return fmt.Errorf("mlink verdict: %w", err)
	}
	return nil
}

// Metrics snapshots fleet-wide and per-link monitoring counters.
func (e *Engine) Metrics() EngineMetrics { return e.eng.Metrics() }

// MetricsInto is Metrics reusing the caller's struct (notably its PerLink
// slice) — the allocation-free variant for report loops.
func (e *Engine) MetricsInto(m *EngineMetrics) { e.eng.MetricsInto(m) }
