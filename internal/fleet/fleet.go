package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"mlink/internal/adapt"
	"mlink/internal/engine"
)

// State classifies what the site's cross-link drift evidence says is
// happening — the paper's few-vs-many spatial argument turned into a fleet
// state machine. A person cuts the Fresnel zones of the few links they stand
// near; an environmental change (temperature, receiver gain re-lock) moves
// many links at once and in the same direction.
type State int

const (
	// StateQuiet: no link reports drift evidence; nothing to do.
	StateQuiet State = iota + 1
	// StateLocalized: a minority of links is perturbed — consistent with a
	// person (or another local change). Profile refreshes are suppressed on
	// those links so the perturber is not absorbed into the baseline, and no
	// recalibration is scheduled.
	StateLocalized
	// StateAmbient: a majority of links drifts in the same direction at
	// once — an environmental/receiver-chain event, not a person (one body
	// cannot cut most of a site's Fresnel zones simultaneously). Quarantines
	// are auto-cleared, baselines relocked, and a staggered fleet
	// recalibration is scheduled for verdict-silent periods.
	StateAmbient
	// StateStepChange: a minority of links is latched critical while the
	// site has been verdict-silent — a furniture-move-style permanent local
	// change. Just those links are recalibrated.
	StateStepChange
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQuiet:
		return "quiet"
	case StateLocalized:
		return "localized"
	case StateAmbient:
		return "ambient-drift"
	case StateStepChange:
		return "step-change"
	default:
		return fmt.Sprintf("fleetstate(%d)", int(s))
	}
}

// Actuator is the engine surface the coordinator drives. *engine.Engine
// implements it; tests substitute a recorder.
type Actuator interface {
	// SuppressRefresh holds off (or resumes) one link's profile refreshes.
	SuppressRefresh(linkID string, on bool) error
	// RelockLink clears one link's quarantine and adopts its next window as
	// the new baseline.
	RelockLink(linkID string) error
	// RequestRecalibration posts a non-blocking online recalibration.
	RequestRecalibration(linkID string, packets int) error
	// RecalibrationPending reports whether a posted recalibration has not
	// completed yet — the staggering signal the dispatch queue waits on.
	RecalibrationPending(linkID string) bool
}

var _ Actuator = (*engine.Engine)(nil)

const (
	// ambientFraction is the fraction of evidencing links (of the links
	// currently fused) that must drift in the same direction before the
	// event is classified as ambient.
	ambientFraction = 0.6
	// minAmbientLinks floors the same-direction count for ambient
	// classification, so a one- or two-link site cannot "correlate" with
	// itself into clearing a genuine quarantine.
	minAmbientLinks = 2
	// recalPackets is the packet budget per scheduled recalibration: twice
	// the paper's calibration length. A scheduled rebuild replaces a
	// threshold refined online from dozens of rolling nulls, so it gets a
	// bigger holdout than the bootstrap calibration or its q95 threshold
	// estimate is too noisy to hold the false-alarm budget.
	recalPackets = 300
	// jumpScoreZ is the |ScoreZ| a jump-flagged link must reach to count as
	// fresh step evidence, matching the drift monitor's jump bound.
	jumpScoreZ = 6
	// walkRateDB is the |ShiftRateDB| past which a link counts as actively
	// walking — its adaptation is absorbing a moving baseline even though
	// its scores look quiet (0.02 dB/window ≈ 2.4 dB/min at the paper's
	// cadence). Walking links are surfaced in the Report (a whole-fleet
	// walk is the early, silent face of ambient drift) and their trend sign
	// seeds the drift direction when the z evidence is still flat.
	walkRateDB = 0.02
	// silentTicks is how many consecutive healthy-links-quiet observations
	// (fused rounds — see Coordinator.Observe) are required before a
	// step-change recalibration may be dispatched — the RASID-style
	// "fleet-silent period" gate: 8 rounds, 4 s at the paper's operating
	// point. Note the trade-off: a person parked on one link past both the
	// drift window and this horizon is indistinguishable from moved
	// furniture and will eventually trigger that link's recalibration; the
	// system recovers when they leave (the departure is itself a step the
	// drift monitor catches).
	silentTicks = 8
	// cooldownTicks spaces staggered recalibration dispatches: 2
	// observations between dispatches, in addition to waiting for the
	// previous link's rebuild to finish.
	cooldownTicks = 2
	// ambientHoldTicks keeps an ambient episode open for 12 observations
	// after its quorum tick. Sensitivity to a correlated event varies
	// across links — an insensitive link's drift statistic can lag the
	// quorum by many windows — so while the episode is open, any link that
	// turns evidencing, or that is simply alarming, is attributed to the
	// same site-wide event and relocked too. The cost is a narrow window in
	// which a person arriving right after an ambient event could be
	// absorbed; the alternative is one lagging link alarming for the rest
	// of the run.
	ambientHoldTicks = 12
)

// Report is one observation's worth of coordinator output: the fleet
// classification plus the evidence counts and actions behind it.
type Report struct {
	// State is the current fleet classification.
	State State
	// Ticks counts observations so far.
	Ticks uint64
	// Links is how many links were fused this observation (recalibrating
	// links are absent from the verdict and therefore not counted).
	Links int
	// Drifting, Jumped and Quarantined count links by evidence class this
	// observation (a link can be in several); Walking counts links whose
	// profile-shift trend shows adaptation actively absorbing a moving
	// baseline (|ShiftRateDB| past the configured walk rate).
	Drifting, Jumped, Quarantined, Walking int
	// SilentStreak is the current run of verdict-empty observations.
	SilentStreak int
	// Suppressed is how many links currently have refreshes suppressed.
	Suppressed int
	// PendingRecals is the current staggered-recalibration queue depth
	// (including one in flight, if any).
	PendingRecals int
	// RecalsDispatched, Relocks and QuarantinesCleared count actions taken
	// over the coordinator's lifetime.
	RecalsDispatched, Relocks, QuarantinesCleared uint64
	// ActuatorErrors counts failed actuator calls (an engine that stopped
	// running mid-dispatch, for instance).
	ActuatorErrors uint64
}

// Coordinator fuses per-link adaptation health and drift evidence into a
// fleet classification each fusion tick and drives the engine's per-link
// controls accordingly. Observe is single-caller (one fusion loop); Report
// may be read from any goroutine.
type Coordinator struct {
	act Actuator

	mu         sync.Mutex
	suppressed map[string]bool
	queued     map[string]bool
	queue      []string
	relockedAt map[string]uint64 // tick of the last relock request, for dedup
	ambientEnd uint64            // last tick of the open ambient episode
	inFlight   string
	cooldown   int
	silent     int
	ticks      uint64
	report     Report
	evidBuf    []linkEvidence // reused across Observes
}

// New builds a coordinator driving the given actuator (normally the
// *engine.Engine whose verdicts it observes).
func New(act Actuator) *Coordinator {
	return &Coordinator{
		act:        act,
		suppressed: make(map[string]bool),
		queued:     make(map[string]bool),
		relockedAt: make(map[string]uint64),
	}
}

// Report returns the latest classification and counters. Safe from any
// goroutine.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// Observe folds one fused site verdict into the fleet state machine and
// applies the resulting actions (suppression, relock, staggered
// recalibration dispatch). Call it once per fused round — from the
// engine's Config.OnRound, with the verdict it hands over — so the
// tick-based windows (silentTicks, ambientHoldTicks, cooldownTicks) count
// closed rounds. The facade's fleet mode does exactly
// that. Observe may request recalibrations while holding its lock: the
// engine delivers a round those requests close only after this call returns.
func (c *Coordinator) Observe(v *engine.SiteVerdict) Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++

	// Gather per-link evidence. Direction is the sign of the rolling drift
	// z when it is informative, else of the fast per-score z — so a step
	// registers its direction on the very tick it lands.
	var drifting, jumped, quarantined, walking, nonQuarEvid int
	var posDir, negDir int
	healthyAlarm := false
	evidencing := evidencing(&c.evidBuf, v.Links)
	for _, ev := range evidencing {
		if ev.drifting {
			drifting++
		}
		if ev.jumped {
			jumped++
		}
		if ev.quarantined {
			quarantined++
		}
		if ev.walking {
			walking++
		}
		if ev.evidencing() {
			if !ev.quarantined {
				nonQuarEvid++
			}
			if ev.dir >= 0 {
				posDir++
			} else {
				negDir++
			}
		} else if ev.present {
			healthyAlarm = true
		}
	}
	// The silence streak is judged on trustworthy links only: a quarantined
	// or drifting link that alarms against its own written-off baseline
	// must not be able to postpone the very recalibration that would fix
	// it. A fresh jump anywhere does count as activity, though — someone
	// just arrived — so a newly perturbed link cannot be recalibrated out
	// from under its visitor; once the jump ages out of the drift window
	// with the shift still latched, it reads as moved furniture instead.
	if healthyAlarm || jumped > 0 {
		c.silent = 0
	} else {
		c.silent++
	}

	n := len(v.Links)
	sameDir := posDir
	if negDir > sameDir {
		sameDir = negDir
	}
	ambientQuorum := int(math.Ceil(ambientFraction * float64(n)))
	if ambientQuorum < minAmbientLinks {
		ambientQuorum = minAmbientLinks
	}

	state := StateQuiet
	switch {
	case n > 0 && sameDir >= ambientQuorum:
		state = StateAmbient
		c.ambientEnd = c.ticks + ambientHoldTicks
		c.onAmbient(evidencing)
	case c.ticks <= c.ambientEnd && drifting+jumped+quarantined > 0:
		// Inside an open ambient episode: links whose statistics lagged
		// the quorum (sensitivity to the shared event varies per link)
		// are attributed to the same cause as they surface.
		state = StateAmbient
		c.onAmbient(evidencing)
	case quarantined > 0 && nonQuarEvid == 0 && c.silent >= silentTicks:
		// Only quarantine-class links evidence, and the site has been
		// silent long enough that nobody is around: a permanent local
		// change (furniture). Recalibrate just those links.
		state = StateStepChange
		for _, ev := range evidencing {
			if ev.quarantined {
				c.enqueue(ev.id)
			}
		}
		c.unsuppressHealthy(evidencing)
	case drifting+jumped > 0:
		// A minority is perturbed while the fleet holds steady: the
		// few-links signature of a person. Hold their baselines still.
		state = StateLocalized
		for _, ev := range evidencing {
			c.setSuppressed(ev.id, ev.evidencing())
		}
	default:
		c.unsuppressAll()
	}

	// Dispatch is gated on the fleet-silence evidence: no trustworthy
	// alarm, no live jump anywhere (someone may have just arrived —
	// including on a link the ambient queue still holds; without the jump
	// gate a person standing on a queued link would be recalibrated into
	// its baseline the moment the rest of the site quieted down), and a
	// short quiet streak. The streak floor is deliberately small — it
	// asserts "the room is probably empty", not the step-change gate's
	// stronger "this local shift is permanent", and every extra round of
	// delay is a round the queued link keeps scoring on its interim
	// relocked baseline.
	c.dispatch(healthyAlarm || jumped > 0 || c.silent < dispatchSilentFloor)

	c.report = Report{
		State:              state,
		Ticks:              c.ticks,
		Links:              n,
		Drifting:           drifting,
		Jumped:             jumped,
		Quarantined:        quarantined,
		Walking:            walking,
		SilentStreak:       c.silent,
		Suppressed:         len(c.suppressed),
		PendingRecals:      len(c.queue) + inFlightCount(c.inFlight),
		RecalsDispatched:   c.report.RecalsDispatched,
		Relocks:            c.report.Relocks,
		QuarantinesCleared: c.report.QuarantinesCleared,
		ActuatorErrors:     c.report.ActuatorErrors,
	}
	return c.report
}

// dispatchSilentFloor is the minimum healthy-quiet streak before a queued
// recalibration may dispatch (see the gate in Observe).
const dispatchSilentFloor = 2

func inFlightCount(id string) int {
	if id == "" {
		return 0
	}
	return 1
}

// linkEvidence is one link's digested drift evidence.
type linkEvidence struct {
	id          string
	dir         int // +1 / -1 drift direction
	drifting    bool
	jumped      bool
	quarantined bool
	walking     bool // profile-shift trend shows an actively absorbed walk
	present     bool // the link's latest decision reads occupied
}

func (ev linkEvidence) evidencing() bool { return ev.drifting || ev.jumped || ev.quarantined }

// evidencing digests the fused per-link health snapshots into the evidence
// the classifier works on, reusing buf so the quiet steady state does not
// allocate per tick.
func evidencing(buf *[]linkEvidence, links []engine.LinkDecision) []linkEvidence {
	out := (*buf)[:0]
	for _, d := range links {
		h := d.Health
		if h.Lifecycle == adapt.LifecycleStale || h.Lifecycle == adapt.LifecycleDown ||
			h.Lifecycle == adapt.LifecycleRecovering {
			// A link whose source is stale or down carries no fresh channel
			// evidence: its last snapshot describes the room as of whenever
			// the frames stopped, and counting it toward cross-link drift
			// consensus (or ambient quorum) would let a dead collector
			// manufacture site-wide conclusions. Keep a neutral entry so
			// fleet-size fractions (ambientFraction) still see the link.
			out = append(out, linkEvidence{id: d.LinkID, dir: 1})
			continue
		}
		ev := linkEvidence{
			id:          d.LinkID,
			dir:         1,
			drifting:    h.State == adapt.StateDrifting || h.State == adapt.StateQuarantined,
			jumped:      h.JumpExceeded && math.Abs(h.ScoreZ) >= jumpScoreZ,
			quarantined: h.State == adapt.StateQuarantined || h.NeedsRecalibration,
			walking:     math.Abs(h.ShiftRateDB) >= walkRateDB,
			present:     d.Present,
		}
		// Direction: the larger standardized deviation wins; a link whose
		// adaptation is silently absorbing a walk (scores flat, trend
		// non-zero) falls back to the trend's sign.
		z := h.DriftZ
		if math.Abs(h.ScoreZ) > math.Abs(z) {
			z = h.ScoreZ
		}
		if z == 0 && ev.walking {
			z = h.ShiftRateDB
		}
		if z < 0 {
			ev.dir = -1
		}
		out = append(out, ev)
	}
	*buf = out
	return out
}

// onAmbient applies the ambient-drift recovery: clear and relock every link
// carrying evidence (the shift is environmental — the level each link sits
// at now is its empty room), lift any person-suppressions (there is no
// person), and schedule a staggered full-quality recalibration for the
// relocked links.
func (c *Coordinator) onAmbient(evs []linkEvidence) {
	// An ambient episode spans several observations as each link's stepped
	// window lands; relockHold keeps the per-link request idempotent across
	// the episode (the adapter consumes the request at the link's next
	// scored window, i.e. within one fused round = one observation).
	const relockHold = 2
	for _, ev := range evs {
		// Inside the episode an alarming link counts even without drift
		// evidence: under a site-wide event, "suddenly occupied" on yet
		// another link is the event landing there, not another person.
		if !ev.evidencing() && !ev.present {
			continue
		}
		if last, ok := c.relockedAt[ev.id]; !ok || c.ticks-last > relockHold {
			if err := c.act.RelockLink(ev.id); err != nil {
				c.report.ActuatorErrors++
			} else {
				c.relockedAt[ev.id] = c.ticks
				c.report.Relocks++
				if ev.quarantined {
					c.report.QuarantinesCleared++
				}
			}
		}
		c.enqueue(ev.id)
	}
	c.unsuppressAll()
}

// setSuppressed reconciles one link's suppression flag with the desired
// state, calling the actuator only on transitions.
func (c *Coordinator) setSuppressed(id string, want bool) {
	if c.suppressed[id] == want {
		return
	}
	if err := c.act.SuppressRefresh(id, want); err != nil {
		c.report.ActuatorErrors++
		return
	}
	if want {
		c.suppressed[id] = true
	} else {
		delete(c.suppressed, id)
	}
}

// unsuppressAll lifts every suppression the coordinator has applied.
func (c *Coordinator) unsuppressAll() {
	for id := range c.suppressed {
		c.setSuppressed(id, false)
	}
}

// unsuppressHealthy lifts suppressions on links that stopped evidencing.
func (c *Coordinator) unsuppressHealthy(evs []linkEvidence) {
	for _, ev := range evs {
		if !ev.evidencing() {
			c.setSuppressed(ev.id, false)
		}
	}
}

// enqueue adds a link to the staggered-recalibration queue (once).
func (c *Coordinator) enqueue(id string) {
	if c.queued[id] || c.inFlight == id {
		return
	}
	c.queued[id] = true
	c.queue = append(c.queue, id)
}

// dispatch advances the staggered recalibration schedule: at most one link
// recalibrates at a time, dispatches are spaced by the cooldown, and nothing
// is dispatched while the site might be occupied (blocked is the caller's
// fleet-silence verdict: a trustworthy alarm, a live jump, or a silent
// streak still shorter than the step-change gate — a recalibration capture
// must be an empty room).
func (c *Coordinator) dispatch(blocked bool) {
	if c.inFlight != "" {
		// The engine reports the rebuild's lifetime directly (posted or
		// executing); inferring it from verdict membership would race the
		// owning shard's pickup and dispatch a second link concurrently.
		if c.act.RecalibrationPending(c.inFlight) {
			return
		}
		c.inFlight = ""
		c.cooldown = 0
	}
	c.cooldown++
	if len(c.queue) == 0 || blocked || c.cooldown < cooldownTicks {
		return
	}
	id := c.queue[0]
	c.queue = c.queue[1:]
	delete(c.queued, id)
	err := c.act.RequestRecalibration(id, recalPackets)
	switch {
	case err == nil:
		c.inFlight = id
		c.report.RecalsDispatched++
	case errors.Is(err, engine.ErrRecalPending):
		// Already rebuilding (an operator beat us to it): treat as in
		// flight.
		c.inFlight = id
	default:
		c.report.ActuatorErrors++
	}
	c.cooldown = 0
}
