package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mlink/internal/body"
	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/propagation"
)

func testGrid(t *testing.T) *channel.Grid {
	t.Helper()
	g, err := channel.NewIntel5300Grid(channel.CenterFreqChannel11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testLink builds a 4 m classroom-style link with a 3-antenna receiver.
func testLink(t *testing.T, reflective bool) (*propagation.Environment, *channel.Grid) {
	t.Helper()
	mat := propagation.Drywall
	if !reflective {
		mat = propagation.Material{Name: "absorber", Reflectivity: 0}
	}
	room, err := propagation.RectRoom(6, 8, mat)
	if err != nil {
		t.Fatal(err)
	}
	grid := testGrid(t)
	lambda := propagation.SpeedOfLight / grid.Center
	rx, err := propagation.NewULA(geom.Point{X: 5, Y: 4}, math.Pi, 3, lambda/2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := propagation.NewEnvironment(room, geom.Point{X: 1, Y: 4}, rx, propagation.DefaultLinkParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return env, grid
}

func testExtractor(t *testing.T, env *propagation.Environment, grid *channel.Grid, seed int64) *csi.Extractor {
	t.Helper()
	x, err := csi.NewExtractor(env, grid, csi.DefaultImpairments(), 50, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestMultipathFactorsPureLOS(t *testing.T) {
	env, grid := testLink(t, false)
	x, err := csi.NewExtractor(env, grid, csi.Impairments{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := x.Capture(nil)
	mu, err := MultipathFactors(f.CSI[1], grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(mu) != 30 {
		t.Fatalf("mu len = %d", len(mu))
	}
	// A pure LOS channel has μ ≈ 1 on every subcarrier.
	for k, m := range mu {
		if math.Abs(m-1) > 0.15 {
			t.Fatalf("pure-LOS μ[%d] = %v, want ≈1", k, m)
		}
	}
}

func TestMultipathFactorsSpreadWithMultipath(t *testing.T) {
	env, grid := testLink(t, true)
	x, err := csi.NewExtractor(env, grid, csi.Impairments{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := x.Capture(nil)
	mu, err := MultipathFactors(f.CSI[1], grid)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for _, m := range mu {
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	// Multipath must spread μ across subcarriers.
	if hi-lo < 0.05 {
		t.Fatalf("μ spread = %v, want spread from multipath", hi-lo)
	}
	for _, m := range mu {
		if m <= 0 || m > 10 {
			t.Fatalf("μ out of plausible range: %v", m)
		}
	}
}

func TestMultipathFactorsErrors(t *testing.T) {
	grid := testGrid(t)
	if _, err := MultipathFactors(make([]complex128, 5), grid); !errors.Is(err, ErrBadInput) {
		t.Fatalf("length mismatch err = %v", err)
	}
	if _, err := MultipathFactors(nil, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil grid err = %v", err)
	}
}

func TestFrameMultipathFactors(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 1)
	f := x.Capture(nil)
	// Every antenna of a frame goes through the scratch path the detector
	// uses; a row that does not match the grid is rejected.
	var sc Scratch
	mu := make([]float64, grid.Len())
	if f.NumAntennas() != 3 || grid.Len() != 30 {
		t.Fatalf("shape %dx%d", f.NumAntennas(), grid.Len())
	}
	for ant := range f.CSI {
		if err := sc.MultipathFactorsInto(mu, f.CSI[ant], grid); err != nil {
			t.Fatalf("antenna %d: %v", ant, err)
		}
		for k, v := range mu {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("antenna %d μ[%d] = %v", ant, k, v)
			}
		}
	}
	if err := sc.MultipathFactorsInto(mu, f.CSI[0][:10], grid); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short row err = %v", err)
	}
}

func TestSubcarrierRSSdB(t *testing.T) {
	row := []complex128{complex(10, 0), 0}
	rss := SubcarrierRSSdB(row)
	if math.Abs(rss[0]-20) > 1e-9 {
		t.Fatalf("rss[0] = %v", rss[0])
	}
	if !math.IsInf(rss[1], -1) {
		t.Fatalf("rss of 0 = %v", rss[1])
	}
}

func TestComputeSubcarrierWeights(t *testing.T) {
	// Subcarrier 2 always has the largest μ: it must get the top weight.
	mus := [][]float64{
		{0.5, 0.8, 2.0, 0.6},
		{0.4, 0.9, 1.8, 0.5},
		{0.6, 0.7, 2.2, 0.4},
	}
	sw, err := subcarrierWeights(mus)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Weights) != 4 {
		t.Fatalf("weights len = %d", len(sw.Weights))
	}
	for k := range sw.Weights {
		if k == 2 {
			continue
		}
		if sw.Weights[2] <= sw.Weights[k] {
			t.Fatalf("weight[2]=%v not dominant over weight[%d]=%v", sw.Weights[2], k, sw.Weights[k])
		}
	}
	if sw.StabilityRatio[2] != 1 {
		t.Fatalf("stability of always-max subcarrier = %v, want 1", sw.StabilityRatio[2])
	}
	if math.Abs(sw.MeanMu[2]-2.0) > 1e-9 {
		t.Fatalf("mean μ[2] = %v", sw.MeanMu[2])
	}
}

func TestComputeSubcarrierWeightsUnstablePenalized(t *testing.T) {
	// Subcarriers 0 and 1 have the same mean μ, but 0 is stable (always
	// above median) while 1 alternates; Eq. 15 must favour 0.
	mus := [][]float64{
		{2.0, 3.5, 0.5, 0.4},
		{2.0, 0.3, 0.5, 0.4},
		{2.0, 3.5, 0.5, 0.4},
		{2.0, 0.3, 0.5, 0.4},
	}
	sw, err := subcarrierWeights(mus)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Weights[0] <= sw.Weights[1] {
		t.Fatalf("stable subcarrier not favoured: w0=%v w1=%v", sw.Weights[0], sw.Weights[1])
	}
}

func TestComputeSubcarrierWeightsErrors(t *testing.T) {
	if _, err := subcarrierWeights(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := subcarrierWeights([][]float64{{}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no subcarriers err = %v", err)
	}
	if _, err := subcarrierWeights([][]float64{{1, 2}, {1}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged err = %v", err)
	}
}

func TestPerPacketWeights(t *testing.T) {
	w, err := perPacketWeights([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
	zero, err := perPacketWeights([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero weights = %v", zero)
	}
	if _, err := perPacketWeights(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestApplyWeightsAndAverage(t *testing.T) {
	avg, err := averageWeightVectors([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if avg[0] != 2 || avg[1] != 3 {
		t.Fatalf("avg = %v", avg)
	}
	if _, err := averageWeightVectors(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := averageWeightVectors([][]float64{{1}, {1, 2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged err = %v", err)
	}
}

func TestPathWeights(t *testing.T) {
	spec := &music.Spectrum{
		AnglesDeg: []float64{-90, -60, -30, 0, 30, 60, 90},
		Power:     []float64{0.1, 0.2, 0.5, 1.0, 0.25, 0.2, 0.1},
	}
	w, err := PathWeights(spec, DefaultPathWeightConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Outside (−60, 60) must be zero (inclusive bounds excluded).
	if w[0] != 0 || w[1] != 0 || w[5] != 0 || w[6] != 0 {
		t.Fatalf("weights outside clamp nonzero: %v", w)
	}
	// Strongest static direction gets the smallest in-range weight.
	if !(w[3] < w[2] && w[3] < w[4]) {
		t.Fatalf("LOS angle not de-emphasized: %v", w)
	}
	// The weaker static direction (+30°, Ps=0.25) gets a larger weight than
	// the stronger one (-30°, Ps=0.5) — NLOS enhancement.
	if w[4] <= w[2] {
		t.Fatalf("weights do not favour weaker static paths: %v", w)
	}
}

func TestPathWeightsErrors(t *testing.T) {
	if _, err := PathWeights(nil, DefaultPathWeightConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil spectrum err = %v", err)
	}
	bad := &music.Spectrum{AnglesDeg: []float64{0}, Power: []float64{1, 2}}
	if _, err := PathWeights(bad, DefaultPathWeightConfig()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("mismatch err = %v", err)
	}
	cfg := DefaultPathWeightConfig()
	cfg.MinDeg, cfg.MaxDeg = 60, -60
	good := &music.Spectrum{AnglesDeg: []float64{0}, Power: []float64{1}}
	if _, err := PathWeights(good, cfg); !errors.Is(err, ErrBadInput) {
		t.Fatalf("inverted clamp err = %v", err)
	}
}

func TestPathWeightsFloorCapsExplosion(t *testing.T) {
	spec := &music.Spectrum{
		AnglesDeg: []float64{-10, 0, 10},
		Power:     []float64{1e-12, 1.0, 0.5},
	}
	cfg := DefaultPathWeightConfig()
	w, err := PathWeights(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] > 1/cfg.FloorRatio+1e-9 {
		t.Fatalf("floor did not cap weight: %v", w[0])
	}
}

func TestWeightedSpectrumDistance(t *testing.T) {
	a := &music.Spectrum{AnglesDeg: []float64{0, 1}, Power: []float64{1, 0}}
	b := &music.Spectrum{AnglesDeg: []float64{0, 1}, Power: []float64{0, 0}}
	d, err := weightedSpectrumDistance(a, b, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-math.Sqrt(0.5)) > 1e-12 {
		t.Fatalf("distance = %v", d)
	}
	// Identical spectra → 0.
	z, err := weightedSpectrumDistance(a, a, []float64{1, 1})
	if err != nil || z != 0 {
		t.Fatalf("self distance = %v err = %v", z, err)
	}
	if _, err := weightedSpectrumDistance(a, b, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("weight mismatch err = %v", err)
	}
	if _, err := weightedSpectrumDistance(a, b, []float64{0, 0}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero weights err = %v", err)
	}
	if _, err := weightedSpectrumDistance(nil, b, []float64{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil err = %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	grid := testGrid(t)
	good := DefaultConfig(grid, SchemeBaseline, nil)
	if err := good.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	noGrid := DefaultConfig(nil, SchemeBaseline, nil)
	if err := noGrid.validate(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil grid err = %v", err)
	}
	pathNoArray := DefaultConfig(grid, SchemeSubcarrierPath, nil)
	if err := pathNoArray.validate(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("path-without-array err = %v", err)
	}
	unknown := DefaultConfig(grid, Scheme(42), nil)
	if err := unknown.validate(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown scheme err = %v", err)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeBaseline.String() != "baseline" ||
		SchemeSubcarrier.String() != "subcarrier-weighting" ||
		SchemeSubcarrierPath.String() != "subcarrier+path-weighting" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() != "scheme(9)" {
		t.Fatalf("unknown scheme string = %v", Scheme(9))
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scheme
		ok   bool
	}{
		{"baseline", SchemeBaseline, true},
		{"subcarrier", SchemeSubcarrier, true},
		{"path", SchemeSubcarrierPath, true},
		{"", 0, false},
		{"Path", 0, false},
		{"subcarrier+path-weighting", 0, false},
	} {
		got, err := ParseScheme(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

// calibrateAndDetect builds a detector of the given scheme over the test
// link and returns (emptyScore, presentScore).
func calibrateAndDetect(t *testing.T, scheme Scheme, target geom.Point) (float64, float64) {
	t.Helper()
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 7)
	cfg := DefaultConfig(grid, scheme, env.RX.Offsets())

	cal := x.CaptureN(120, nil)
	profile, err := Calibrate(cfg, cal)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatalf("detector: %v", err)
	}

	emptyWin := x.CaptureN(25, nil)
	emptyScore, err := det.ScoreScratch(emptyWin, NewScratch())
	if err != nil {
		t.Fatalf("empty score: %v", err)
	}
	presWin := x.CaptureN(25, []body.Body{body.Default(target)})
	presScore, err := det.ScoreScratch(presWin, NewScratch())
	if err != nil {
		t.Fatalf("present score: %v", err)
	}
	return emptyScore, presScore
}

func TestDetectorSeparatesPresenceAllSchemes(t *testing.T) {
	target := geom.Point{X: 3, Y: 4} // on the LOS
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		empty, present := calibrateAndDetect(t, scheme, target)
		if present <= empty {
			t.Fatalf("%v: present score %v not above empty score %v", scheme, present, empty)
		}
		if present < empty*1.5 {
			t.Fatalf("%v: separation too weak: %v vs %v", scheme, present, empty)
		}
	}
}

func TestDetectorThresholdWorkflow(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 11)
	cfg := DefaultConfig(grid, SchemeSubcarrier, nil)
	cal := x.CaptureN(150, nil)
	profile, err := Calibrate(cfg, cal)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	holdout := x.CaptureN(150, nil)
	null, err := det.SelfScores(holdout, 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(null) != 6 {
		t.Fatalf("null scores = %d", len(null))
	}
	th, err := det.CalibrateThreshold(null, 0.95, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || det.Threshold() != th {
		t.Fatalf("threshold = %v", th)
	}
	// Empty window must not trigger; LOS-blocking presence must.
	dEmpty, err := det.DetectScratch(x.CaptureN(25, nil), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if dEmpty.Present {
		t.Fatalf("false positive on empty room: %+v", dEmpty)
	}
	dPres, err := det.DetectScratch(x.CaptureN(25, []body.Body{body.Default(geom.Point{X: 3, Y: 4})}), NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if !dPres.Present {
		t.Fatalf("missed LOS-blocking presence: %+v", dPres)
	}
}

func TestDetectorErrors(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 13)
	cfg := DefaultConfig(grid, SchemeBaseline, nil)
	if _, err := Calibrate(cfg, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty calibrate err = %v", err)
	}
	profile, err := Calibrate(cfg, x.CaptureN(30, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(cfg, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil profile err = %v", err)
	}
	det, err := NewDetector(cfg, profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.ScoreScratch(nil, NewScratch()); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty window err = %v", err)
	}
	// The caller owns the scratch: none is allocated behind its back.
	window := x.CaptureN(25, nil)
	if _, err := det.Kernel().Score(profile, window, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil scratch score err = %v", err)
	}
	if _, err := det.DetectScratch(window, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil scratch detect err = %v", err)
	}
	var ws WindowStats
	if err := det.MeasureWindow(&ws, window, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil scratch measure err = %v", err)
	}
	if _, err := det.SelfScores(x.CaptureN(10, nil), 25, 25); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short holdout err = %v", err)
	}
	if _, err := det.SelfScores(nil, 0, 0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("zero window err = %v", err)
	}
	if _, err := det.CalibrateThreshold(nil, 0.9, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no null scores err = %v", err)
	}
	if _, err := det.CalibrateThreshold([]float64{1}, 0, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad quantile err = %v", err)
	}
	// Path scheme requires a profile with partials and path weights.
	pathCfg := DefaultConfig(grid, SchemeSubcarrierPath, env.RX.Offsets())
	if _, err := NewDetector(pathCfg, profile); !errors.Is(err, ErrBadInput) {
		t.Fatalf("missing partials err = %v", err)
	}
}

func TestPathWeightingEmphasizesOffPathPresence(t *testing.T) {
	// A person near the receiver but well off the LOS (reflection-dominated
	// geometry): path weighting should score it at least as prominently
	// relative to its own noise floor as the baseline does.
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 17)
	offPath := geom.Point{X: 4.4, Y: 5.8} // ~1.9 m lateral of the LOS

	ratio := func(scheme Scheme) float64 {
		cfg := DefaultConfig(grid, scheme, env.RX.Offsets())
		profile, err := Calibrate(cfg, x.CaptureN(120, nil))
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewDetector(cfg, profile)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := det.ScoreScratch(x.CaptureN(25, nil), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		pres, err := det.ScoreScratch(x.CaptureN(25, []body.Body{body.Default(offPath)}), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if empty == 0 {
			t.Fatal("empty score is zero")
		}
		return pres / empty
	}
	base := ratio(SchemeBaseline)
	path := ratio(SchemeSubcarrierPath)
	if path < 1 {
		t.Fatalf("path weighting did not register off-path presence: ratio %v", path)
	}
	t.Logf("off-path score ratios: baseline %.2f, subcarrier+path %.2f", base, path)
}

// TestStaticSpectrumFromPartials checks the Eq. 17 derivation a path
// profile's weights come from: the weights Calibrate stores are those
// pathWeights derives from the profile's partials, aligned with the
// steering grid, and the empty room's spectrum peaks near broadside.
func TestStaticSpectrumFromPartials(t *testing.T) {
	env, grid := testLink(t, true)
	x := testExtractor(t, env, grid, 19)
	cfg := DefaultConfig(grid, SchemeSubcarrierPath, env.RX.Offsets())
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		t.Fatal(err)
	}
	spec, w, err := pathWeights(cfg, profile.Partials)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, profile.PathWeights) {
		t.Fatal("calibrated path weights differ from those derived from the partials")
	}
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The scoring kernel's steering grid, read off a Bartlett spectrum.
	var cov linalg.Matrix
	if err := profile.Partials.CovarianceInto(&cov, nil); err != nil {
		t.Fatal(err)
	}
	var steer music.Spectrum
	if err := k.plan.BartlettInto(&steer, &cov); err != nil {
		t.Fatal(err)
	}
	if len(w) != len(steer.AnglesDeg) || !reflect.DeepEqual(spec.AnglesDeg, steer.AnglesDeg) {
		t.Fatalf("%d path weights over %d spectrum angles, steering grid has %d", len(w), len(spec.AnglesDeg), len(steer.AnglesDeg))
	}
	// The static spectrum's dominant angle should be near broadside (the
	// LOS arrives head-on in this geometry).
	dom, err := spec.DominantAngle()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dom) > 10 {
		t.Fatalf("static dominant angle = %v°, want ≈0", dom)
	}
}

func TestMeanMultipathFactor(t *testing.T) {
	m, err := MeanMultipathFactor([]float64{1, 2, 3})
	if err != nil || m != 2 {
		t.Fatalf("mean = %v err = %v", m, err)
	}
	if _, err := MeanMultipathFactor(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestLinkMeanMu(t *testing.T) {
	env, grid := testLink(t, true)
	frames := testExtractor(t, env, grid, 17).CaptureN(8, nil)
	mean, perSub, err := LinkMeanMu(frames, grid)
	if err != nil {
		t.Fatal(err)
	}
	// The frame-mean of per-frame means and the subcarrier-mean of the
	// per-subcarrier means are the same quantity, summed in another order.
	overSub, err := MeanMultipathFactor(perSub)
	if err != nil {
		t.Fatal(err)
	}
	if mean <= 0 || math.Abs(mean-overSub) > 1e-12*mean {
		t.Fatalf("link mean μ %v, mean of per-subcarrier means %v", mean, overSub)
	}
	for k := range perSub {
		var want float64
		for _, f := range frames {
			mu, err := MultipathFactors(f.CSI[1], grid)
			if err != nil {
				t.Fatal(err)
			}
			want += mu[k] / float64(len(frames))
		}
		if perSub[k] != want {
			t.Fatalf("subcarrier %d: mean μ %v, want %v", k, perSub[k], want)
		}
	}
	if _, _, err := LinkMeanMu(nil, grid); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no frames err = %v", err)
	}
	if _, _, err := LinkMeanMu([]*csi.Frame{{}}, grid); !errors.Is(err, ErrBadInput) {
		t.Fatalf("antenna-less frame err = %v", err)
	}
}
