package core

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"mlink/internal/csi"
	"mlink/internal/music"
	"mlink/internal/scenario"
)

// naivePathScore recomputes the SchemeSubcarrierPath decision statistic
// through the retained allocating reference path — naive music.Covariance
// over every calibration frame (cal, the frames the profile was calibrated
// on), the trigonometric bartlett,
// toDB, weightedSpectrumDistance — mirroring scoreSubcarrierPath step for
// step without any of its caches (steering plan, spectral partials, fused
// dB distance). The property tests pin the production path to this.
func naivePathScore(t *testing.T, k *Kernel, profile *Profile, cal, window []*csi.Frame) float64 {
	t.Helper()
	perAnt, err := k.windowWeights(window, NewScratch())
	if err != nil {
		t.Fatalf("naive weights: %v", err)
	}
	w, err := averageWeightVectors(perAnt)
	if err != nil {
		t.Fatalf("naive average: %v", err)
	}
	est, err := newEstimator(k.cfg)
	if err != nil {
		t.Fatalf("naive estimator: %v", err)
	}
	monCov, err := music.Covariance(window, w)
	if err != nil {
		t.Fatalf("naive monitor covariance: %v", err)
	}
	monSpec, err := bartlett(est, monCov)
	if err != nil {
		t.Fatalf("naive monitor spectrum: %v", err)
	}
	calCov, err := music.Covariance(cal, w)
	if err != nil {
		t.Fatalf("naive calibration covariance: %v", err)
	}
	calSpec, err := bartlett(est, calCov)
	if err != nil {
		t.Fatalf("naive calibration spectrum: %v", err)
	}
	score, err := weightedSpectrumDistance(toDB(monSpec), toDB(calSpec), profile.PathWeights)
	if err != nil {
		t.Fatalf("naive distance: %v", err)
	}
	return score
}

// driftFrames pulls n frames off a drift stream without recycling, so a
// test may keep its calibration frames for a reference computation.
func driftFrames(t *testing.T, d *scenario.DriftStream, n int) []*csi.Frame {
	t.Helper()
	out := make([]*csi.Frame, n)
	for i := range out {
		f, err := d.Next()
		if err != nil {
			t.Fatalf("drift frame %d: %v", i, err)
		}
		out[i] = f
	}
	return out
}

// TestPathScoreCachedMatchesNaive sweeps drift presets × seeds and pins the
// cached scoring path (steering plan + profile partials + scratch reuse +
// fused dB distance through dsp.Log10Fast) to the naive math.Log10 reference
// within 1e-6 — including after a profile Refresh and a full Adopt relock,
// whose profiles carry the calibration partials by reference. The bound is
// dominated by Log10Fast's ≤2e-9 per-log error (≤2e-8 dB per weighted
// angle); everything upstream of the distance agrees to ~1e-15 relative, and
// Log10Fast itself is pinned to <2e-9 by its own property suite in dsp.
func TestPathScoreCachedMatchesNaive(t *testing.T) {
	presets := map[string]scenario.DriftPreset{
		"none":      scenario.NoDrift(),
		"gain":      scenario.GainWalk(4),
		"cfo":       scenario.CFOWalk(20, 0.002),
		"furniture": scenario.FurnitureMove(70),
	}
	for name, preset := range presets {
		for _, seed := range []int64{1, 5, 9} {
			s, err := scenario.LinkCase(2, seed)
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.NewDriftStream(preset, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
			cal := driftFrames(t, d, 60)
			profile, err := Calibrate(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			if profile.Partials == nil {
				t.Fatal("Calibrate left Partials nil")
			}
			det, err := NewDetector(cfg, profile)
			if err != nil {
				t.Fatal(err)
			}
			k := det.Kernel()
			sc := NewScratch()
			check := func(stage string, p *Profile, window []*csi.Frame) {
				got, err := k.Score(p, window, sc)
				if err != nil {
					t.Fatalf("%s/%s/seed=%d: cached score: %v", name, stage, seed, err)
				}
				want := naivePathScore(t, k, p, cal, window)
				if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Fatalf("%s/%s/seed=%d: cached %v vs naive %v (diff %v)",
						name, stage, seed, got, want, math.Abs(got-want))
				}
			}
			check("calibrated", profile, driftFrames(t, d, 25))

			// Refresh folds a silent window into the EWMA profile; the
			// calibration partials ride along by reference.
			lp, err := NewLinkProfile(profile, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			var ws WindowStats
			if err := k.MeasureWindowInto(&ws, driftFrames(t, d, 25), sc); err != nil {
				t.Fatal(err)
			}
			refreshed, err := lp.Refresh(&ws)
			if err != nil {
				t.Fatal(err)
			}
			if refreshed.Partials != profile.Partials {
				t.Fatalf("%s/seed=%d: Refresh did not carry partials by reference", name, seed)
			}
			check("refreshed", refreshed, driftFrames(t, d, 25))

			// Adopt relocks the profile onto the drifted window statistics.
			if err := k.MeasureWindowInto(&ws, driftFrames(t, d, 25), sc); err != nil {
				t.Fatal(err)
			}
			adopted, err := lp.Adopt(&ws)
			if err != nil {
				t.Fatal(err)
			}
			if adopted.Partials == nil {
				t.Fatalf("%s/seed=%d: Adopt dropped partials", name, seed)
			}
			check("adopted", adopted, driftFrames(t, d, 25))
		}
	}
}

// TestScoreScratchIndependentAcrossSchemes pins scratch-state hygiene for
// every scheme: a scratch that has scored many windows produces bit-identical
// scores to a fresh one — the invariant that makes work-stealing link
// migration safe.
func TestScoreScratchIndependentAcrossSchemes(t *testing.T) {
	s, err := scenario.LinkCase(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.NewDriftStream(scenario.GainWalk(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	cal := driftFrames(t, d, 60)
	windows := make([][]*csi.Frame, 6)
	for i := range windows {
		windows[i] = driftFrames(t, d, 25)
	}
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		cfg := DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
		profile, err := Calibrate(cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(cfg, profile)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewScratch()
		for _, win := range windows {
			if _, err := det.ScoreScratch(win, warm); err != nil {
				t.Fatal(err)
			}
		}
		for wi, win := range windows {
			reused, err := det.ScoreScratch(win, warm)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := det.ScoreScratch(win, NewScratch())
			if err != nil {
				t.Fatal(err)
			}
			if reused != fresh {
				t.Fatalf("%v window %d: reused scratch %v != fresh scratch %v", scheme, wi, reused, fresh)
			}
		}
	}
}

// TestPathProfilePersistenceRebuildsPartials round-trips a path profile and
// a link profile through every record version. A current record carries
// the partials bit for bit; a version 2 record also carries the static
// spectrum and path weights, which decoding drops; a version 1 record
// carries the calibration frames, and decoding rebuilds the partials from
// them. Either way the partials equal those of the test's own calibration
// frames, the path weights are re-derived bit for bit, and scores through
// the restored profiles and link profiles are bit-identical.
func TestPathProfilePersistenceRebuildsPartials(t *testing.T) {
	s, err := scenario.LinkCase(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.NewDriftStream(scenario.NoDrift(), 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	cal := driftFrames(t, d, 60)
	profile, err := Calibrate(cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	window := driftFrames(t, d, 25)
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.ScoreScratch(window, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := music.NewPartials(cal)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := NewLinkProfile(profile, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	for tag, blob := range profileRecords(t, cfg, profile, cal) {
		decoded, err := UnmarshalProfile(cfg, blob)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if decoded.Partials == nil {
			t.Fatalf("%s: UnmarshalProfile left Partials nil for a path profile", tag)
		}
		if !samePartials(decoded.Partials, fresh) {
			t.Fatalf("%s: decoded partials differ from the partials of the calibration frames", tag)
		}
		if !reflect.DeepEqual(decoded.PathWeights, profile.PathWeights) {
			t.Fatalf("%s: re-derived path weights differ from the calibrated ones", tag)
		}
		if err := det.SetProfile(decoded); err != nil {
			t.Fatal(err)
		}
		got, err := det.ScoreScratch(window, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: restored-profile score %v != original %v", tag, got, want)
		}

		lpDec, err := UnmarshalLinkProfile(cfg, appendLinkProfileWith(nil, lp, blob))
		if err != nil {
			t.Fatalf("%s link profile: %v", tag, err)
		}
		for role, p := range map[string]*Profile{"original": lpDec.Original(), "current": lpDec.Current()} {
			if p.Partials == nil {
				t.Fatalf("%s: UnmarshalLinkProfile left %s Partials nil", tag, role)
			}
		}
		if err := det.SetProfile(lpDec.Current()); err != nil {
			t.Fatal(err)
		}
		if got, err := det.ScoreScratch(window, NewScratch()); err != nil || got != want {
			t.Fatalf("%s: link-profile restored score %v (err %v) != original %v", tag, got, err, want)
		}
	}
	// The link profile's own encoder writes the current version.
	lpBlob, err := lp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := profile.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lpBlob, appendLinkProfileWith(nil, lp, v3)) {
		t.Fatal("LinkProfile.AppendBinary differs from the test-side writer around a current profile record")
	}
}

// TestPathScoreZeroAllocs pins the tentpole claim at the API boundary: a
// warmed path-scheme ScoreScratch allocates nothing.
func TestPathScoreZeroAllocs(t *testing.T) {
	s, err := scenario.LinkCase(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.NewDriftStream(scenario.NoDrift(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	profile, err := Calibrate(cfg, driftFrames(t, d, 60))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	window := driftFrames(t, d, 25)
	sc := NewScratch()
	if _, err := det.ScoreScratch(window, sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := det.ScoreScratch(window, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm path-scheme score allocates %v/op, want 0", allocs)
	}
}

// TestPathScorersConcurrentSharedPlan runs many scorers against one Detector
// — one Kernel, one steering plan, one profile partials — with per-goroutine
// scratches, under -race in CI. Every scorer must get the identical score.
func TestPathScorersConcurrentSharedPlan(t *testing.T) {
	s, err := scenario.LinkCase(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.NewDriftStream(scenario.GainWalk(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	profile, err := Calibrate(cfg, driftFrames(t, d, 60))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	window := driftFrames(t, d, 25)
	want, err := det.ScoreScratch(window, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	scores := make([]float64, 8)
	errs := make([]error, 8)
	for g := range scores {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := NewScratch()
			for iter := 0; iter < 10; iter++ {
				scores[g], errs[g] = det.ScoreScratch(window, sc)
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range scores {
		if errs[g] != nil {
			t.Fatalf("scorer %d: %v", g, errs[g])
		}
		if scores[g] != want {
			t.Fatalf("scorer %d: score %v != sequential %v", g, scores[g], want)
		}
	}
}
