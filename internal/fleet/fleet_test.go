package fleet

import (
	"testing"

	"mlink/internal/adapt"
	"mlink/internal/core"
	"mlink/internal/engine"
)

// recorder is a fake actuator capturing the coordinator's control calls.
type recorder struct {
	suppressed map[string]bool
	relocked   map[string]int
	recals     []string
}

func newRecorder() *recorder {
	return &recorder{suppressed: make(map[string]bool), relocked: make(map[string]int)}
}

func (r *recorder) SuppressRefresh(id string, on bool) error {
	r.suppressed[id] = on
	return nil
}

func (r *recorder) RelockLink(id string) error {
	r.relocked[id]++
	return nil
}

func (r *recorder) RequestRecalibration(id string, packets int) error {
	r.recals = append(r.recals, id)
	return nil
}

// RecalibrationPending: the fake's rebuilds complete instantly.
func (r *recorder) RecalibrationPending(string) bool { return false }

// verdict builds a fused snapshot from per-link (health, present) pairs.
func verdict(links ...engine.LinkDecision) *engine.SiteVerdict {
	present := false
	positive := 0
	for _, l := range links {
		if l.Present {
			present = true
			positive++
		}
	}
	return &engine.SiteVerdict{Present: present, Positive: positive, Total: len(links), Links: links}
}

func link(id string, h adapt.Health, present bool) engine.LinkDecision {
	return engine.LinkDecision{
		LinkID:   id,
		Decision: core.Decision{Present: present, Score: 1, Threshold: 1},
		Weight:   1,
		Health:   h,
	}
}

func healthy() adapt.Health { return adapt.Health{State: adapt.StateHealthy} }

func jumped(z float64) adapt.Health {
	return adapt.Health{State: adapt.StateHealthy, ScoreZ: z, JumpExceeded: true}
}

func quarantined(z float64) adapt.Health {
	return adapt.Health{State: adapt.StateQuarantined, DriftZ: z, ScoreZ: z, NeedsRecalibration: true}
}

func TestCoordinatorQuiet(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	rep := c.Observe(verdict(link("a", healthy(), false), link("b", healthy(), false)))
	if rep.State != StateQuiet {
		t.Fatalf("state = %v", rep.State)
	}
	if len(rec.recals) != 0 || len(rec.relocked) != 0 {
		t.Fatalf("quiet tick acted: %+v", rec)
	}
}

// TestCoordinatorLocalized: a single perturbed link is a person — suppress
// its refreshes, never recalibrate, and lift the suppression once it calms.
func TestCoordinatorLocalized(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	rep := c.Observe(verdict(
		link("a", jumped(20), true),
		link("b", healthy(), false),
		link("c", healthy(), false),
	))
	if rep.State != StateLocalized {
		t.Fatalf("state = %v", rep.State)
	}
	if !rec.suppressed["a"] {
		t.Fatal("perturbed link not suppressed")
	}
	if len(rec.relocked) != 0 || len(rec.recals) != 0 {
		t.Fatalf("localized tick relocked/recalibrated: %+v", rec)
	}
	// The person leaves; the link calms; suppression lifts.
	rep = c.Observe(verdict(
		link("a", healthy(), false),
		link("b", healthy(), false),
		link("c", healthy(), false),
	))
	if rep.State != StateQuiet || rec.suppressed["a"] {
		t.Fatalf("suppression not lifted: state %v, %+v", rep.State, rec.suppressed)
	}
}

// TestCoordinatorAmbient: a same-direction majority is environmental —
// relock every evidencing link, clear quarantines, and schedule staggered
// recalibrations during quiet ticks.
func TestCoordinatorAmbient(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	rep := c.Observe(verdict(
		link("a", jumped(15), true),
		link("b", jumped(12), true),
		link("c", quarantined(18), true),
		link("d", healthy(), false),
		link("e", healthy(), false),
	))
	if rep.State != StateAmbient {
		t.Fatalf("state = %v", rep.State)
	}
	for _, id := range []string{"a", "b", "c"} {
		if rec.relocked[id] == 0 {
			t.Fatalf("link %s not relocked (relocked: %+v)", id, rec.relocked)
		}
	}
	if rec.relocked["d"] != 0 || rec.relocked["e"] != 0 {
		t.Fatalf("quiet links relocked: %+v", rec.relocked)
	}
	if rep.QuarantinesCleared != 1 {
		t.Fatalf("quarantines cleared = %d, want 1", rep.QuarantinesCleared)
	}
	// Quiet ticks afterwards: the queue drains one link per cooldown.
	all := verdict(
		link("a", healthy(), false),
		link("b", healthy(), false),
		link("c", healthy(), false),
		link("d", healthy(), false),
		link("e", healthy(), false),
	)
	for i := 0; i < 12; i++ {
		c.Observe(all)
	}
	if len(rec.recals) != 3 {
		t.Fatalf("recals dispatched = %v, want the 3 relocked links", rec.recals)
	}
}

// TestCoordinatorAmbientHoldCatchesLaggards: a link whose statistics lag the
// quorum is attributed to the same event while the episode is open — even if
// its only evidence is that it is suddenly alarming.
func TestCoordinatorAmbientHoldCatchesLaggards(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	c.Observe(verdict(
		link("a", jumped(15), true),
		link("b", jumped(12), true),
		link("c", jumped(11), true),
		link("d", healthy(), false),
	))
	// Two ticks later, d finally shows drift evidence: still the same event.
	c.Observe(verdict(
		link("a", healthy(), false),
		link("b", healthy(), false),
		link("c", healthy(), false),
		link("d", adapt.Health{State: adapt.StateDrifting, DriftZ: 5}, true),
	))
	if rec.relocked["d"] == 0 {
		t.Fatalf("laggard not relocked during the episode hold: %+v", rec.relocked)
	}
	// After the hold expires, a lone perturbed link is a person again.
	quiet := verdict(
		link("a", healthy(), false), link("b", healthy(), false),
		link("c", healthy(), false), link("d", healthy(), false),
	)
	for i := 0; i < ambientHoldTicks; i++ {
		c.Observe(quiet)
	}
	relocksBefore := rec.relocked["a"]
	rep := c.Observe(verdict(
		link("a", jumped(20), true),
		link("b", healthy(), false),
		link("c", healthy(), false),
		link("d", healthy(), false),
	))
	if rep.State != StateLocalized {
		t.Fatalf("post-hold single perturbation classified %v, want localized", rep.State)
	}
	if rec.relocked["a"] != relocksBefore {
		t.Fatal("person's link relocked outside an ambient episode")
	}
}

// TestCoordinatorStepChange: a quarantined minority recalibrates only after
// the healthy fleet has been silent long enough, and a fresh jump anywhere
// resets that silence (someone just arrived).
func TestCoordinatorStepChange(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	quarantinedSite := verdict(
		// Old latch: the arrival jump has aged out of the drift window.
		link("a", adapt.Health{State: adapt.StateQuarantined, DriftZ: 12, ScoreZ: 12, NeedsRecalibration: true}, true),
		link("b", healthy(), false),
		link("c", healthy(), false),
	)
	var rep Report
	for i := 0; i < silentTicks-1; i++ {
		rep = c.Observe(quarantinedSite)
		if len(rec.recals) != 0 {
			t.Fatalf("recal dispatched before the silent period elapsed (tick %d)", i)
		}
	}
	for i := 0; i < silentTicks; i++ {
		rep = c.Observe(quarantinedSite)
	}
	if rep.State != StateStepChange {
		t.Fatalf("state = %v, want step-change", rep.State)
	}
	// The fake actuator never clears the quarantine, so the coordinator may
	// legitimately re-dispatch (against a real engine the second request is
	// absorbed as ErrRecalPending); what matters is that only the
	// quarantined link is ever dispatched.
	if len(rec.recals) == 0 {
		t.Fatal("no recalibration dispatched after the silent period")
	}
	for _, id := range rec.recals {
		if id != "a" {
			t.Fatalf("recals = %v, want only link a", rec.recals)
		}
	}

	// Same shape, but the quarantined link still carries a fresh jump (a
	// person just arrived and parked): silence must never accumulate.
	rec2 := newRecorder()
	c2 := New(rec2)
	parked := verdict(
		link("a", adapt.Health{State: adapt.StateQuarantined, DriftZ: 12, ScoreZ: 12, JumpExceeded: true, NeedsRecalibration: true}, true),
		link("b", healthy(), false),
		link("c", healthy(), false),
	)
	for i := 0; i < 20; i++ {
		c2.Observe(parked)
	}
	if len(rec2.recals) != 0 {
		t.Fatalf("parked person's link recalibrated out from under them: %v", rec2.recals)
	}
}

// TestCoordinatorDispatchWaitsForAlarms: queued recalibrations must not
// dispatch while a trustworthy (non-evidencing) link reads occupied — a
// recalibration capture must be an empty room.
func TestCoordinatorDispatchWaitsForAlarms(t *testing.T) {
	rec := newRecorder()
	// cooldownTicks keeps the enqueueing tick itself from dispatching.
	c := New(rec)
	// Ambient event enqueues three links.
	c.Observe(verdict(
		link("a", jumped(15), true),
		link("b", jumped(12), true),
		link("c", jumped(11), true),
	))
	// A healthy link alarms every tick (people in the room): nothing may
	// dispatch, however long it lasts.
	busy := verdict(
		link("a", healthy(), true),
		link("b", healthy(), false),
		link("c", healthy(), false),
	)
	for i := 0; i < 20; i++ {
		c.Observe(busy)
	}
	if len(rec.recals) != 0 {
		t.Fatalf("recals dispatched into an occupied site: %v", rec.recals)
	}
	// The site empties: the queue drains, one link per cooldown.
	quiet := verdict(link("a", healthy(), false), link("b", healthy(), false), link("c", healthy(), false))
	for i := 0; i < 12; i++ {
		c.Observe(quiet)
	}
	if len(rec.recals) != 3 {
		t.Fatalf("queue did not drain once the site emptied: %v", rec.recals)
	}
}

// TestCoordinatorDispatchBlockedByFreshJump: a person arriving on an
// ambient-queued link (fresh jump, which as evidence does not count as a
// "healthy alarm") must still block the queue — recalibrating that link now
// would bake the person into its baseline.
func TestCoordinatorDispatchBlockedByFreshJump(t *testing.T) {
	rec := newRecorder()
	c := New(rec)
	// Ambient event enqueues all three links.
	c.Observe(verdict(
		link("a", jumped(15), true),
		link("b", jumped(12), true),
		link("c", jumped(11), true),
	))
	// A person parks on queued link a before the queue drains: its fresh
	// jump persists for the visit. Nothing may dispatch.
	occupied := verdict(
		link("a", jumped(20), true),
		link("b", healthy(), false),
		link("c", healthy(), false),
	)
	for i := 0; i < 20; i++ {
		c.Observe(occupied)
	}
	if len(rec.recals) != 0 {
		t.Fatalf("recals dispatched while a fresh jump was live: %v", rec.recals)
	}
	// The person leaves and the site stays silent: the queue drains.
	quiet := verdict(link("a", healthy(), false), link("b", healthy(), false), link("c", healthy(), false))
	for i := 0; i < 12; i++ {
		c.Observe(quiet)
	}
	if len(rec.recals) != 3 {
		t.Fatalf("queue did not drain after the visit: %v", rec.recals)
	}
}
