package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"mlink/internal/adapt"
	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/scenario"
	"mlink/internal/supervise"
)

// soakPolicy is the fast-clock supervision policy the soak tests run under.
func soakPolicy() supervise.Policy {
	return supervise.Policy{
		RingSize:   64,
		StaleAfter: 60 * time.Millisecond,
		DownAfter:  200 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Seed:       7,
	}
}

// pacedSource rate-limits a simulated source the way a real collector is
// limited by its packet rate (the paper's collectors ping at 50 packets/s).
// An unpaced simulation source produces as fast as one CPU core can
// compute, which on a small CI box turns the soak's rate comparison into a
// CPU-scheduling benchmark; pacing restores the property under test —
// whether an impaired link stalls its shard siblings.
//
// The schedule is absolute (each frame's release time is the previous one
// plus pace) rather than a relative sleep per frame: a relative sleep adds
// the scheduler's wake-up latency to every frame, and that latency grows
// with whatever else the box is doing — which is exactly what differs
// between the soak's clean and impaired phases. Against the absolute
// schedule a late wake-up shortens the next sleep, so the delivery rate
// self-corrects and stays load-independent while there is CPU slack. The
// catch-up window is capped below the supervisor ring size — a burst that
// outruns the ring would be counted as producer drops — and after a longer
// gap (the chaos stall) the schedule re-anchors instead of bursting the
// backlog.
type pacedSource struct {
	inner Source
	pace  time.Duration
	next  time.Time
}

func (s *pacedSource) Next() (*csi.Frame, error) {
	now := time.Now()
	if s.next.IsZero() || s.next.Before(now.Add(-50*s.pace)) {
		s.next = now
	}
	s.next = s.next.Add(s.pace)
	if d := s.next.Sub(now); d > 0 {
		time.Sleep(d)
	}
	return s.inner.Next()
}

// soakFleet builds a 5-link supervised fleet on ONE worker — the shape that
// proves decoupling, because an impaired link and its siblings share the
// same scoring goroutine — with link 2 occupied by a person and link 0
// wrapped in the chaos source.
func soakFleet(t *testing.T, chaos scenario.ChaosConfig) (*Engine, *scenario.ChaosSource) {
	t.Helper()
	e := New(Config{Workers: 1, Fusion: KOfN{K: 1}})
	pol := soakPolicy()
	if err := e.SetSupervision(&pol); err != nil {
		t.Fatal(err)
	}
	var chaosSrc *scenario.ChaosSource
	var occupied *switchSource
	for i := 0; i < 5; i++ {
		s, cfg, src := buildLink(t, i%5+1, int64(40+i))
		id := fmt.Sprintf("L%d", i)
		if i == 2 {
			src.bodies = []body.Body{body.Default(s.LinkMidpoint())}
			occupied = src
		}
		paced := &pacedSource{inner: src, pace: time.Millisecond}
		var err error
		if i == 0 {
			chaosSrc = scenario.NewChaosSource(paced, chaos)
			err = e.AddLink(id, cfg, chaosSrc)
		} else {
			err = e.AddLink(id, cfg, paced)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Calibrate with everyone out of the room: person in, chaos unarmed.
	bodies := occupied.bodies
	occupied.bodies = nil
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	occupied.bodies = bodies
	return e, chaosSrc
}

// siblingWindows sums WindowsScored over every link but L0 (the chaos one).
func siblingWindows(m *Metrics) uint64 {
	var sum uint64
	for _, lm := range m.PerLink {
		if lm.ID != "L0" {
			sum += lm.WindowsScored
		}
	}
	return sum
}

func lifecycleOf(m *Metrics, id string) adapt.Lifecycle {
	for _, lm := range m.PerLink {
		if lm.ID == id {
			return lm.Lifecycle
		}
	}
	return adapt.LifecycleUnsupervised
}

// runSoak drives the three-phase soak: a clean baseline phase, an impaired
// phase with chaos armed, and a recovery phase after disarming. It returns
// the sibling scoring rates (windows/s) measured in the clean and impaired
// phases. Both phases run the identical observation loop — a verdict poll
// every 20 ms — and normalize by their actual elapsed time, so the two
// rates differ only by what the impairment itself costs (on a one-core CI
// box, an asymmetric measurement load or a driver oversleep would otherwise
// masquerade as a sibling slowdown).
func runSoak(t *testing.T, chaos scenario.ChaosConfig, phase time.Duration, wantDegraded bool) (clean, impaired float64) {
	t.Helper()
	e, chaosSrc := soakFleet(t, chaos)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx, 0) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()

	var m Metrics
	settled := func() bool {
		e.MetricsInto(&m)
		for _, lm := range m.PerLink {
			if lm.WindowsScored < 2 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatal("fleet never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var v SiteVerdict
	phaseRate := func(check func(v *SiteVerdict)) float64 {
		e.MetricsInto(&m)
		start := siblingWindows(&m)
		t0 := time.Now()
		for end := t0.Add(phase); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
			if err := e.VerdictInto(&v); err != nil {
				t.Fatalf("VerdictInto: %v", err)
			}
			check(&v)
		}
		e.MetricsInto(&m)
		return float64(siblingWindows(&m)-start) / time.Since(t0).Seconds()
	}

	// Phase A: clean baseline. The occupied sibling keeps the site present.
	clean = phaseRate(func(v *SiteVerdict) {
		if !v.Present {
			t.Fatalf("site verdict lost the occupied link in the clean phase: %+v", v.Coverage)
		}
	})

	// Phase B: chaos armed. The occupied sibling must keep the site verdict
	// positive through the impairment on every poll.
	chaosSrc.Arm(true)
	sawDegraded := false
	impaired = phaseRate(func(v *SiteVerdict) {
		if v.Inconclusive {
			t.Fatal("site went inconclusive with 4 healthy links")
		}
		if !v.Present {
			t.Fatalf("site verdict lost the occupied sibling during chaos: %+v", v.Coverage)
		}
		if v.Coverage.Degraded() {
			sawDegraded = true
		}
	})
	if wantDegraded && !sawDegraded {
		t.Error("coverage never reported degraded during the impairment")
	}

	// Phase C: disarm and require full re-entry — the impaired link back to
	// Live and every link fused again.
	chaosSrc.Arm(false)
	chaosSrc.Resume()
	deadline = time.Now().Add(10 * time.Second)
	for {
		e.MetricsInto(&m)
		if err := e.VerdictInto(&v); err == nil &&
			!v.Coverage.Degraded() && lifecycleOf(&m, "L0") == adapt.LifecycleLive {
			break
		}
		if time.Now().After(deadline) {
			e.MetricsInto(&m)
			t.Fatalf("impaired link never recovered: lifecycle %v, coverage %+v",
				lifecycleOf(&m, "L0"), v.Coverage)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return clean, impaired
}

// checkSiblingRate enforces the soak criterion: siblings keep >= 95% of
// their clean-phase scoring rate while one link is impaired.
func checkSiblingRate(t *testing.T, clean, impaired float64) {
	t.Helper()
	t.Logf("sibling rate: clean phase %.1f windows/s, impaired phase %.1f windows/s", clean, impaired)
	if clean == 0 {
		t.Fatal("no sibling windows in the clean phase")
	}
	if impaired < 0.95*clean {
		t.Errorf("sibling rate dropped below 95%%: %.1f clean vs %.1f impaired", clean, impaired)
	}
}

func TestSoakStalledSource(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// A hard stall long enough to walk the whole Live→Stale→Down ladder.
	clean, impaired := runSoak(t, scenario.ChaosConfig{StallEvery: 1, StallFor: time.Hour}, 2*time.Second, true)
	checkSiblingRate(t, clean, impaired)
}

func TestSoakFlappingReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	clean, impaired := runSoak(t, scenario.ChaosConfig{FailEvery: 150, FailConnects: 2}, 2*time.Second, false)
	checkSiblingRate(t, clean, impaired)
}

func TestSoakMidStreamEOF(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	clean, impaired := runSoak(t, scenario.ChaosConfig{EOFEvery: 200}, 2*time.Second, false)
	checkSiblingRate(t, clean, impaired)
}

func TestSoakSlowDrip(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	clean, impaired := runSoak(t, scenario.ChaosConfig{DripEvery: 1, DripDelay: 4 * time.Millisecond}, 2*time.Second, false)
	checkSiblingRate(t, clean, impaired)
}

// TestSupervisedAllDownInconclusive stalls every source: the verdict must
// turn explicitly Inconclusive (nil error), never report "absent", and turn
// conclusive again when the sources come back.
func TestSupervisedAllDownInconclusive(t *testing.T) {
	e := New(Config{Workers: 1, Fusion: KOfN{K: 1}})
	pol := soakPolicy()
	if err := e.SetSupervision(&pol); err != nil {
		t.Fatal(err)
	}
	chaos := make([]*scenario.ChaosSource, 2)
	for i := 0; i < 2; i++ {
		_, cfg, src := buildLink(t, i+1, int64(60+i))
		chaos[i] = scenario.NewChaosSource(src, scenario.ChaosConfig{})
		if err := e.AddLink(fmt.Sprintf("L%d", i), cfg, chaos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx, 0) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()

	var v SiteVerdict
	waitVerdict := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (verdict %+v coverage %+v)", what, v.Present, v.Coverage)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitVerdict("first conclusive verdict", func() bool {
		return e.VerdictInto(&v) == nil && !v.Inconclusive && v.Total == 2
	})

	chaos[0].Stall()
	chaos[1].Stall()
	waitVerdict("inconclusive verdict", func() bool {
		if err := e.VerdictInto(&v); err != nil {
			t.Fatalf("VerdictInto with the site down: %v (must be a nil-error inconclusive verdict)", err)
		}
		return v.Inconclusive
	})
	if v.Present {
		t.Fatal("inconclusive verdict claims presence")
	}
	if v.Coverage.Fused != 0 || v.Coverage.Links != 2 {
		t.Fatalf("inconclusive coverage = %+v, want 0 of 2 fused", v.Coverage)
	}

	chaos[0].Resume()
	chaos[1].Resume()
	waitVerdict("conclusive verdict after recovery", func() bool {
		return e.VerdictInto(&v) == nil && !v.Inconclusive && !v.Coverage.Degraded()
	})
}

// endAfterSource fails hard (not io.EOF, not reconnectable) after serving
// n frames.
type endAfterSource struct {
	inner Source
	n     int
	err   error
}

func (s *endAfterSource) Next() (*csi.Frame, error) {
	if s.n <= 0 {
		return nil, s.err
	}
	s.n--
	return s.inner.Next()
}

// TestSupervisedRunSurvivesSourceError kills one link's source with a hard
// error mid-run: the supervised engine must keep serving the remaining link
// to completion and return cleanly, with the dead link's cause preserved in
// its status rather than propagated as the run's error.
func TestSupervisedRunSurvivesSourceError(t *testing.T) {
	e := New(Config{Workers: 1, Fusion: KOfN{K: 1}})
	pol := soakPolicy()
	if err := e.SetSupervision(&pol); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("transport wedged")
	_, cfg1, src1 := buildLink(t, 1, 71)
	_, cfg2, src2 := buildLink(t, 2, 72)
	if err := e.AddLink("dying", cfg1, src1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddLink("healthy", cfg2, src2); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	// Swap the dying link's source for one that hard-fails after 30 frames
	// (one window and change) — after calibration, so the baseline is real.
	e.byID["dying"].src = &endAfterSource{inner: src1, n: 30, err: boom}

	if err := e.Run(context.Background(), 8); err != nil {
		t.Fatalf("Run with a dying link returned %v, want nil", err)
	}
	var m Metrics
	e.MetricsInto(&m)
	for _, lm := range m.PerLink {
		switch lm.ID {
		case "healthy":
			if lm.WindowsScored < 8 {
				t.Errorf("healthy link scored %d windows, want >= 8", lm.WindowsScored)
			}
		case "dying":
			if lm.WindowsScored >= 8 {
				t.Errorf("dying link scored %d windows despite its source dying", lm.WindowsScored)
			}
		}
	}
	sup := e.byID["dying"].sup
	if sup == nil {
		t.Fatal("dying link has no supervisor")
	}
	if st := sup.Status(); !errors.Is(st.Err, boom) {
		t.Errorf("dying link status err = %v, want the source error", st.Err)
	}
}

// TestSupervisedLifecycleTransitionsReported checks OnTransition plumbing
// through the engine: a stalled link must report Live→Stale→Down and the
// per-link jitter seeds must decorrelate (distinct supervisor RNG streams).
func TestSupervisedLifecycleTransitionsReported(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	pol := soakPolicy()
	pol.OnTransition = func(link string, from, to adapt.Lifecycle, cause error) {
		mu.Lock()
		seen[fmt.Sprintf("%s:%s->%s", link, from, to)] = true
		mu.Unlock()
	}
	e := New(Config{Workers: 1, Fusion: KOfN{K: 1}})
	if err := e.SetSupervision(&pol); err != nil {
		t.Fatal(err)
	}
	_, cfg, src := buildLink(t, 3, 81)
	chaosSrc := scenario.NewChaosSource(src, scenario.ChaosConfig{})
	if err := e.AddLink("L0", cfg, chaosSrc); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx, 0) }()

	chaosSrc.Stall()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		ok := seen["L0:live->stale"] && seen["L0:stale->down"]
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("missing staleness transitions; saw %v", seen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	chaosSrc.Resume()
	if err := <-runDone; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
		t.Fatalf("Run returned %v", err)
	}
}
