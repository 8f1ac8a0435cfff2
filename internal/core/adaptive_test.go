package core

import (
	"errors"
	"math"
	"testing"
)

func testDetector(t *testing.T, seed int64) *Detector {
	t.Helper()
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, seed)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestCalibrateThresholdEdgeCases(t *testing.T) {
	det := testDetector(t, 23)

	// Tiny null sample.
	if _, err := det.CalibrateThreshold([]float64{0.4}, 0.95, 1.3); !errors.Is(err, ErrTooFewNullScores) {
		t.Fatalf("1-sample err = %v, want ErrTooFewNullScores", err)
	}
	if _, err := det.CalibrateThreshold(nil, 0.95, 1.3); !errors.Is(err, ErrTooFewNullScores) {
		t.Fatalf("empty err = %v, want ErrTooFewNullScores", err)
	}
	// All-identical scores: no real link produces a constant statistic.
	if _, err := det.CalibrateThreshold([]float64{0.7, 0.7, 0.7, 0.7}, 0.95, 1.3); !errors.Is(err, ErrDegenerateNull) {
		t.Fatalf("identical err = %v, want ErrDegenerateNull", err)
	}
	// NaN / Inf guards.
	for _, bad := range [][]float64{
		{0.5, math.NaN(), 0.6},
		{0.5, math.Inf(1), 0.6},
		{math.Inf(-1), 0.5, 0.6},
	} {
		if _, err := det.CalibrateThreshold(bad, 0.95, 1.3); !errors.Is(err, ErrNonFiniteScore) {
			t.Fatalf("non-finite %v err = %v, want ErrNonFiniteScore", bad, err)
		}
	}
	// Every typed error also matches the package-wide ErrBadInput, so the
	// pre-existing error handling keeps working.
	for _, bad := range [][]float64{{0.4}, {0.7, 0.7}, {0.5, math.NaN()}} {
		if _, err := det.CalibrateThreshold(bad, 0.95, 1.3); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%v does not wrap ErrBadInput: %v", bad, err)
		}
	}
	// A junk sample must never have set a junk threshold.
	if got := det.Threshold(); got != 0 {
		t.Fatalf("threshold mutated by failed calibration: %v", got)
	}
	// And a good sample still works.
	th, err := det.CalibrateThreshold([]float64{0.4, 0.5, 0.6, 0.45}, 0.95, 1.3)
	if err != nil || th <= 0 {
		t.Fatalf("good sample: th=%v err=%v", th, err)
	}
}

func TestLinkProfileRefresh(t *testing.T) {
	det := testDetector(t, 29)
	lp, err := NewLinkProfile(det.Profile(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	orig := det.Profile()
	nAnt := len(orig.MeanAmp)
	nSub := len(orig.MeanAmp[0])

	// A window identical to the profile changes nothing.
	same := &WindowStats{MeanAmp: orig.MeanAmp, MeanRSSdB: orig.MeanRSSdB}
	next, err := lp.Refresh(same)
	if err != nil {
		t.Fatal(err)
	}
	if next == orig {
		t.Fatal("refresh returned the same *Profile (must be copy-on-write)")
	}
	for ant := 0; ant < nAnt; ant++ {
		for k := 0; k < nSub; k++ {
			if math.Abs(next.MeanRSSdB[ant][k]-orig.MeanRSSdB[ant][k]) > 1e-12 {
				t.Fatalf("identical window moved the profile at [%d][%d]", ant, k)
			}
		}
	}
	if lp.ShiftDB() > 1e-9 {
		t.Fatalf("shift after identical refresh = %v", lp.ShiftDB())
	}

	// A +2 dB window moves the RSS profile by alpha × 2 dB and the shift
	// reports it; the original profile stays untouched.
	shifted := &WindowStats{MeanAmp: zeros2(nAnt, nSub), MeanRSSdB: zeros2(nAnt, nSub)}
	for ant := 0; ant < nAnt; ant++ {
		for k := 0; k < nSub; k++ {
			shifted.MeanAmp[ant][k] = orig.MeanAmp[ant][k]
			shifted.MeanRSSdB[ant][k] = orig.MeanRSSdB[ant][k] + 2
		}
	}
	if _, err := lp.Refresh(shifted); err != nil {
		t.Fatal(err)
	}
	if got := lp.ShiftDB(); math.Abs(got-1.0) > 1e-9 { // α=0.5 × 2 dB
		t.Fatalf("shift = %v dB, want 1.0", got)
	}
	if lp.Original() != orig {
		t.Fatal("original profile pointer changed")
	}
	if lp.Refreshes() != 2 {
		t.Fatalf("refreshes = %d", lp.Refreshes())
	}

	// Shape mismatch and non-finite stats are rejected.
	if _, err := lp.Refresh(&WindowStats{MeanAmp: zeros2(1, 2), MeanRSSdB: zeros2(1, 2)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("shape mismatch err = %v", err)
	}
	nan := &WindowStats{MeanAmp: zeros2(nAnt, nSub), MeanRSSdB: zeros2(nAnt, nSub)}
	nan.MeanAmp[0][0] = math.NaN()
	if _, err := lp.Refresh(nan); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN stats err = %v", err)
	}
}

func TestLinkProfileValidation(t *testing.T) {
	if _, err := NewLinkProfile(nil, 0.1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil profile err = %v", err)
	}
	det := testDetector(t, 31)
	if _, err := NewLinkProfile(det.Profile(), 1.5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("alpha>1 err = %v", err)
	}
	lp, err := NewLinkProfile(det.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if lp.alpha != DefaultProfileAlpha {
		t.Fatalf("default alpha = %v", lp.alpha)
	}
}

func TestMeasureWindowMatchesCalibrate(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 37)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	frames := x.CaptureN(30, nil)
	profile, err := Calibrate(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := NewKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ws WindowStats
	if err := kernel.MeasureWindowInto(&ws, frames, NewScratch()); err != nil {
		t.Fatal(err)
	}
	// Measuring the calibration window must reproduce the profile exactly:
	// same frames, same means.
	for ant := range profile.MeanAmp {
		for k := range profile.MeanAmp[ant] {
			if math.Abs(ws.MeanAmp[ant][k]-profile.MeanAmp[ant][k]) > 1e-9 {
				t.Fatalf("amp mismatch at [%d][%d]: %v vs %v", ant, k, ws.MeanAmp[ant][k], profile.MeanAmp[ant][k])
			}
			if math.Abs(ws.MeanRSSdB[ant][k]-profile.MeanRSSdB[ant][k]) > 1e-9 {
				t.Fatalf("rss mismatch at [%d][%d]", ant, k)
			}
		}
	}
	if err := kernel.MeasureWindowInto(&ws, nil, NewScratch()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty window err = %v", err)
	}
}

func TestDriftMonitorWalkVsStep(t *testing.T) {
	ref := []float64{0.50, 0.55, 0.45, 0.52, 0.48, 0.51}
	mon, err := NewDriftMonitor(ref)
	if err != nil {
		t.Fatal(err)
	}
	if st := mon.Snapshot(); st.State != DriftUnknown {
		t.Fatalf("state before samples = %v", st.State)
	}

	// Scores consistent with the reference: healthy.
	for i := 0; i < 10; i++ {
		mon.Observe(0.5 + 0.03*float64(i%3-1))
	}
	if st := mon.Snapshot(); st.State != DriftHealthy {
		t.Fatalf("healthy stream classified %v (z=%v)", st.State, st.Z)
	}

	// A gradual walk: large total shift, tiny per-window increments →
	// warning, never critical.
	level := 0.5
	for i := 0; i < 40; i++ {
		level += 0.02
		mon.Observe(level)
	}
	st := mon.Snapshot()
	if st.State != DriftWarning {
		t.Fatalf("walked stream classified %v (z=%v, jump=%v), want warning", st.State, st.Z, st.MaxJumpZ)
	}

	// A step: one big jump, sustained → critical (quarantine).
	mon2, err := NewDriftMonitor(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mon2.Observe(0.5)
	}
	for i := 0; i < 6; i++ {
		mon2.Observe(2.5) // person / furniture arrives
	}
	st = mon2.Snapshot()
	if st.State != DriftCritical {
		t.Fatalf("step stream classified %v (z=%v, jump=%v), want critical", st.State, st.Z, st.MaxJumpZ)
	}
	// The step subsides (person leaves): hysteresis unlatches.
	for i := 0; i < 12; i++ {
		mon2.Observe(0.5)
	}
	if st = mon2.Snapshot(); st.State == DriftCritical {
		t.Fatalf("monitor stayed critical after recovery (z=%v)", st.Z)
	}
}

func TestDriftMonitorRebase(t *testing.T) {
	ref := []float64{0.50, 0.55, 0.45, 0.52, 0.48, 0.51}
	mon, err := NewDriftMonitor(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < driftMinSamples; i++ {
		mon.Observe(1.0)
	}
	before := mon.Snapshot()
	if before.Z <= 3 {
		t.Fatalf("shifted stream z = %v, want > 3", before.Z)
	}
	// Rebase onto the new level: the same stream is now healthy.
	if err := mon.Rebase([]float64{0.95, 1.05, 1.0, 0.98, 1.02}); err != nil {
		t.Fatal(err)
	}
	mon.Observe(1.0)
	after := mon.Snapshot()
	if after.State != DriftHealthy {
		t.Fatalf("rebased stream classified %v (z=%v)", after.State, after.Z)
	}
}

func TestDriftMonitorErrors(t *testing.T) {
	if _, err := NewDriftMonitor([]float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short ref err = %v", err)
	}
	if _, err := NewDriftMonitor([]float64{1, math.NaN()}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN ref err = %v", err)
	}
	mon, err := NewDriftMonitor([]float64{0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Non-finite scores are counted but never poison the statistics: the
	// monitor classifies once it holds driftMinSamples finite scores.
	mon.Observe(0.55)
	mon.Observe(math.NaN())
	mon.Observe(math.Inf(1))
	for i := 1; i < driftMinSamples; i++ {
		mon.Observe(0.5)
	}
	st := mon.Snapshot()
	if st.State == DriftUnknown {
		t.Fatalf("monitor unclassified after %d finite scores", driftMinSamples)
	}
	if math.IsNaN(st.Z) || math.IsInf(st.Z, 0) {
		t.Fatalf("non-finite z after NaN scores: %v", st.Z)
	}
	if want := uint64(driftMinSamples + 2); st.Observed != want {
		t.Fatalf("observed = %d, want %d", st.Observed, want)
	}
}

// TestDetectorConcurrentAdaptation exercises the snapshot discipline: one
// goroutine swaps profiles and thresholds while workers score — run under
// -race this validates the Detector's synchronization.
func TestDetectorConcurrentAdaptation(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 41)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	frames := x.CaptureN(60, nil)
	profile, err := Calibrate(cfg, frames)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	det.SetThreshold(1)
	window := x.CaptureN(25, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		lp, err := NewLinkProfile(profile, 0.2)
		if err != nil {
			t.Error(err)
			return
		}
		var ws WindowStats
		for i := 0; i < 50; i++ {
			if err := det.MeasureWindow(&ws, window, NewScratch()); err != nil {
				t.Error(err)
				return
			}
			next, err := lp.Refresh(&ws)
			if err != nil {
				t.Error(err)
				return
			}
			if err := det.SetProfile(next); err != nil {
				t.Error(err)
				return
			}
			det.SetThreshold(1 + float64(i)*0.01)
		}
	}()
	sc := NewScratch()
	for i := 0; i < 50; i++ {
		if _, err := det.DetectScratch(window, sc); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
