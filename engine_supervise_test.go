package mlink

import (
	"context"
	"testing"
	"time"
)

// TestEngineFacadeSupervisedChaos smoke-tests the public supervision
// surface: EnableSupervision + AddChaosLink, a stalled link degrading
// coverage without stalling its siblings, and full recovery after the
// chaos is disarmed.
func TestEngineFacadeSupervisedChaos(t *testing.T) {
	eng := NewEngine(EngineConfig{Workers: 1, WindowSize: 25, Fusion: KOfN{K: 1}})
	if err := eng.EnableSupervision(SupervisionPolicy{
		StaleAfter: 50 * time.Millisecond,
		DownAfter:  150 * time.Millisecond,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	sysA, err := NewLinkCaseSystem(1, SchemeSubcarrier, 31)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewLinkCaseSystem(2, SchemeSubcarrier, 32)
	if err != nil {
		t.Fatal(err)
	}
	chaosSrc, err := eng.AddChaosLink("flaky", sysA, ChaosConfig{StallEvery: 1, StallFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mid := sysB.Scenario.LinkMidpoint()
	if err := eng.AddLink("occupied", sysB, &Person{X: mid.X, Y: mid.Y}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Calibrate(60); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- eng.Run(ctx, 0) }()
	defer func() {
		cancel()
		if err := <-runDone; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()

	var v SiteVerdict
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (coverage %+v)", what, v.Coverage)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	wait("both links fused", func() bool {
		return eng.VerdictInto(&v) == nil && !v.Coverage.Degraded() && v.Coverage.Links == 2
	})

	// Stall the flaky link: coverage degrades to 1 of 2 while the occupied
	// sibling keeps the verdict present.
	chaosSrc.Arm(true)
	wait("degraded coverage", func() bool {
		return eng.VerdictInto(&v) == nil && v.Coverage.Degraded()
	})
	if v.Inconclusive || !v.Present {
		t.Fatalf("degraded verdict = present %v inconclusive %v, want the sibling's detection", v.Present, v.Inconclusive)
	}
	if v.Coverage.Fused != 1 {
		t.Fatalf("degraded coverage %+v, want 1 of 2 fused", v.Coverage)
	}

	// Disarm: the stalled producer is released and the link re-enters.
	chaosSrc.Arm(false)
	wait("full coverage restored", func() bool {
		return eng.VerdictInto(&v) == nil && !v.Coverage.Degraded()
	})

	m := eng.Metrics()
	for _, lm := range m.PerLink {
		if lm.ID == "flaky" && lm.Lifecycle != LinkLive {
			t.Fatalf("flaky link lifecycle %v after recovery, want live", lm.Lifecycle)
		}
	}
}
