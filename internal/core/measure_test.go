package core

import (
	"errors"
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

// markScoredRSS overwrites the mean RSS rows a score left in sc with a
// marker, so a measurement that copies them instead of recomputing shows.
func markScoredRSS(sc *Scratch) {
	for _, row := range sc.rss {
		for i := range row {
			row[i] = rssMarker
		}
	}
}

const rssMarker = -12345.0

// TestMeasureWindowReusesScoredFrames pins the reuse record of
// MeasureWindowInto for every scheme: measuring the window just scored is
// bit-identical to a fresh measurement, and the mean RSS rows Score left
// (SchemeSubcarrier only) are copied only when the record names exactly
// this window under this kernel, and only once. Which path ran is made
// visible by marking the scratch's rows after scoring.
func TestMeasureWindowReusesScoredFrames(t *testing.T) {
	env, grid := testLink(t, true)
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		x := testExtractor(t, env, grid, 11)
		cfg := DefaultConfig(grid, scheme, env.RX.Offsets())
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
		// measure reports whether the scored rows were copied; a recompute
		// must equal the fresh measurement bit for bit.
		measure := func() bool {
			t.Helper()
			markScoredRSS(sc)
			if err := k.MeasureWindowInto(ws, window, sc); err != nil {
				t.Fatal(err)
			}
			copied := ws.MeanRSSdB[0][0] == rssMarker
			if !copied && !sameStats(ws, want) {
				t.Fatalf("%s: measurement differs from a fresh one", scheme)
			}
			return copied
		}
		check := func(what string, copied, want bool) {
			t.Helper()
			if copied != want {
				t.Fatalf("%s: %s: scored rows copied = %v, want %v", scheme, what, copied, want)
			}
		}
		hasRows := scheme == SchemeSubcarrier

		// Hit: the copy is exactly what a recompute gives.
		score(k, window)
		if err := k.MeasureWindowInto(ws, window, sc); err != nil {
			t.Fatal(err)
		}
		if !sameStats(ws, want) {
			t.Fatalf("%s: measurement after scoring differs from a fresh one", scheme)
		}
		score(k, window)
		check("after scoring this window", measure(), hasRows)
		// One-shot: the record was consumed.
		check("second measurement", measure(), false)
		// A scratch that last scored a different window recomputes.
		score(k, window)
		score(k, decoy)
		check("after scoring another window", measure(), false)
		// So does one that last scored this window under another kernel.
		score(other, window)
		check("after another kernel scored", measure(), false)
		// A failed score leaves no record behind.
		score(k, window)
		if _, err := k.Score(profile, []*csi.Frame{{}}, sc); err == nil {
			t.Fatalf("%s: invalid window scored", scheme)
		}
		check("after a failed score", measure(), false)
	}
}

// TestMalformedFramesRejected pins the shape check that guards every
// statistic: a window or calibration set holding one frame with a short row
// or an extra antenna is rejected with ErrBadInput, never indexed past.
func TestMalformedFramesRejected(t *testing.T) {
	env, grid := testLink(t, true)
	breakages := map[string]func(f *csi.Frame){
		"short row":     func(f *csi.Frame) { f.CSI[1] = f.CSI[1][:len(f.CSI[1])-1] },
		"extra antenna": func(f *csi.Frame) { f.CSI = append(f.CSI, f.CSI[0]) },
	}
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		x := testExtractor(t, env, grid, 3)
		cfg := DefaultConfig(grid, scheme, env.RX.Offsets())
		profile, err := Calibrate(cfg, x.CaptureN(60, nil))
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, breakFrame := range breakages {
			window := x.CaptureN(25, nil)
			breakFrame(window[7])
			if _, err := k.Score(profile, window, NewScratch()); !errors.Is(err, ErrBadInput) {
				t.Errorf("%s, %s: Score err = %v", scheme, name, err)
			}
			if err := k.MeasureWindowInto(&WindowStats{}, window, NewScratch()); !errors.Is(err, ErrBadInput) {
				t.Errorf("%s, %s: MeasureWindowInto err = %v", scheme, name, err)
			}
			if _, err := Calibrate(cfg, window); !errors.Is(err, ErrBadInput) {
				t.Errorf("%s, %s: Calibrate err = %v", scheme, name, err)
			}
		}
	}
}
