package core

import (
	"math"
	"testing"

	"mlink/internal/csi"
)

// freshStats measures window on a scratch that has never seen it, so the
// window is always prepared from its current frame contents.
func freshStats(t *testing.T, k *Kernel, window []*csi.Frame) *WindowStats {
	t.Helper()
	ws := &WindowStats{}
	if err := k.MeasureWindowInto(ws, window, NewScratch()); err != nil {
		t.Fatal(err)
	}
	return ws
}

// sameStats reports whether two measurements are bit-identical.
func sameStats(a, b *WindowStats) bool {
	for _, pair := range [][2][][]float64{{a.MeanAmp, b.MeanAmp}, {a.MeanRSSdB, b.MeanRSSdB}} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if len(pair[0][i]) != len(pair[1][i]) {
				return false
			}
			for j := range pair[0][i] {
				if math.Float64bits(pair[0][i][j]) != math.Float64bits(pair[1][i][j]) {
					return false
				}
			}
		}
	}
	return true
}

// scaleWindow multiplies every CSI value of the window's frames in place.
func scaleWindow(window []*csi.Frame, g complex128) {
	for _, f := range window {
		for ant := range f.CSI {
			for k := range f.CSI[ant] {
				f.CSI[ant][k] *= g
			}
		}
	}
}

// TestMeasureWindowReusesScoredFrames pins the one-sanitize-per-window
// contract of MeasureWindowInto for every scheme. Which path ran is made
// visible by editing the source frames after scoring: a measurement that
// reuses the scored preparation still reports the original window, while
// one that re-prepares reports the edit.
func TestMeasureWindowReusesScoredFrames(t *testing.T) {
	env, grid := testLink(t, true)
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		for _, sanitize := range []bool{true, false} {
			x := testExtractor(t, env, grid, 11)
			cfg := DefaultConfig(grid, scheme, env.RX.Offsets())
			cfg.Sanitize = sanitize
			profile, err := Calibrate(cfg, x.CaptureN(60, nil))
			if err != nil {
				t.Fatal(err)
			}
			k, err := NewKernel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			other, err := NewKernel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			window := x.CaptureN(25, nil)
			decoy := x.CaptureN(25, nil)
			want := freshStats(t, k, window)
			sc := NewScratch()
			ws := &WindowStats{}
			score := func(k *Kernel, w []*csi.Frame) {
				t.Helper()
				if _, err := k.Score(profile, w, sc); err != nil {
					t.Fatal(err)
				}
			}
			measure := func() *WindowStats {
				t.Helper()
				if err := k.MeasureWindowInto(ws, window, sc); err != nil {
					t.Fatal(err)
				}
				return ws
			}
			name := scheme.String()
			if !sanitize {
				name += "/raw"
			}

			// Hit: the scored preparation is measured, not the edited frames.
			score(k, window)
			scaleWindow(window, 2)
			if sanitize && !sameStats(measure(), want) {
				t.Fatalf("%s: measurement after scoring did not reuse the scored frames", name)
			}
			// Without sanitization the prepared frames are the window
			// itself, so the edit shows either way; this arm only checks
			// the bookkeeping is harmless.
			edited := freshStats(t, k, window)
			if !sanitize && !sameStats(measure(), edited) {
				t.Fatalf("%s: raw-window measurement differs from a fresh one", name)
			}
			// One-shot: the record was consumed, so a second measurement
			// prepares the (edited) window afresh.
			if !sameStats(measure(), edited) {
				t.Fatalf("%s: second measurement reused a consumed preparation", name)
			}
			scaleWindow(window, 0.5)

			// A scratch that last scored a different window falls back.
			score(k, window)
			score(k, decoy)
			if !sameStats(measure(), want) {
				t.Fatalf("%s: measurement after scoring another window differs", name)
			}
			// A scratch that last scored this window under another kernel
			// falls back too: the edit must show.
			score(other, window)
			scaleWindow(window, 2)
			if !sameStats(measure(), edited) {
				t.Fatalf("%s: measurement reused another kernel's preparation", name)
			}
			scaleWindow(window, 0.5)
			// A failed preparation leaves no record behind.
			score(k, window)
			if _, err := k.Score(profile, []*csi.Frame{{}}, sc); err == nil {
				t.Fatalf("%s: invalid window scored", name)
			}
			scaleWindow(window, 2)
			if !sameStats(measure(), edited) {
				t.Fatalf("%s: measurement reused frames across a failed preparation", name)
			}
			scaleWindow(window, 0.5)
		}
	}
}
