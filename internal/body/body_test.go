package body

import (
	"math"
	"testing"

	"mlink/internal/geom"
)

const wavelength = 0.1217 // ~2.4 GHz

func losPath(length float64) geom.Polyline {
	return geom.Polyline{{X: 0, Y: 0}, {X: length, Y: 0}}
}

func TestShadowGainFarFromPath(t *testing.T) {
	b := Default(geom.Point{X: 2, Y: 3}) // 3 m off a 4 m link
	g := b.ShadowGain(losPath(4), wavelength)
	if g != 1 {
		t.Fatalf("far body gain = %v, want 1", g)
	}
}

func TestShadowGainBlockingMidpath(t *testing.T) {
	b := Default(geom.Point{X: 2, Y: 0}) // dead centre of a 4 m link
	g := b.ShadowGain(losPath(4), wavelength)
	if g >= 1 {
		t.Fatalf("blocking body gain = %v, want < 1", g)
	}
	// A centred adult should attenuate by several dB at 2.4 GHz.
	db := -20 * math.Log10(g)
	if db < 3 || db > 30 {
		t.Fatalf("blocking loss = %v dB, want within [3, 30]", db)
	}
}

func TestShadowGainMonotoneInClearance(t *testing.T) {
	// Moving the body away from the path must not increase attenuation.
	prev := -1.0
	for _, y := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.6, 1.0, 2.0} {
		b := Default(geom.Point{X: 2, Y: y})
		g := b.ShadowGain(losPath(4), wavelength)
		if g < prev {
			t.Fatalf("gain decreased with clearance at y=%v: %v < %v", y, g, prev)
		}
		if g < 0 || g > 1 {
			t.Fatalf("gain out of range at y=%v: %v", y, g)
		}
		prev = g
	}
}

func TestShadowGainSensitivityRegion(t *testing.T) {
	// The paper (§IV-B) cites a sensitivity region of 5–6 wavelengths
	// around the LOS path. Beyond ~8 wavelengths the gain must be ≈1.
	b := Default(geom.Point{X: 2, Y: 8 * wavelength})
	g := b.ShadowGain(losPath(4), wavelength)
	if g < 0.97 {
		t.Fatalf("gain at 8λ clearance = %v, want ≈1", g)
	}
	// Within one wavelength of the path edge there must be measurable loss.
	near := Default(geom.Point{X: 2, Y: 0.2 + 0.5*wavelength})
	if gn := near.ShadowGain(losPath(4), wavelength); gn > 0.95 {
		t.Fatalf("gain just off the body radius = %v, want < 0.95", gn)
	}
}

func TestShadowGainNearEndpointsIsOne(t *testing.T) {
	// Bodies at (or beyond) the antennas do not trigger the knife-edge
	// model (degenerate geometry handled explicitly).
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: -1, Y: 0}, {X: 5, Y: 0.1}} {
		b := Default(p)
		if g := b.ShadowGain(losPath(4), wavelength); g != 1 {
			t.Fatalf("endpoint body at %v gain = %v, want 1", p, g)
		}
	}
}

func TestShadowGainMultiSegment(t *testing.T) {
	// A bent (reflected) path is shadowed when the body blocks either leg.
	path := geom.Polyline{{X: 0, Y: 0}, {X: 2, Y: 2}, {X: 4, Y: 0}}
	onLeg := Default(geom.Point{X: 1, Y: 1})
	if g := onLeg.ShadowGain(path, wavelength); g >= 1 {
		t.Fatalf("body on first leg gain = %v, want < 1", g)
	}
	offPath := Default(geom.Point{X: 2, Y: 0})
	gOff := offPath.ShadowGain(path, wavelength)
	// The apex path passes ~1.4 m from (2,0): clear.
	if gOff < 0.99 {
		t.Fatalf("body far from bent path gain = %v, want ≈1", gOff)
	}
}

func TestShadowGainBothLegsWorseThanOne(t *testing.T) {
	// Body close to the bounce vertex shadows two legs: compound loss must
	// be at least the single-leg loss.
	path := geom.Polyline{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0.5}}
	b := Default(geom.Point{X: 2, Y: 0.05})
	g := b.ShadowGain(path, wavelength)
	single := b.segmentShadowGain(path.Segments()[0], wavelength)
	if g > single+1e-12 {
		t.Fatalf("compound gain %v exceeds single-leg gain %v", g, single)
	}
}

func TestKnifeEdgeLossContinuity(t *testing.T) {
	// J(v) must be continuous at the validity threshold v = -0.78 and
	// increasing in v.
	lo := knifeEdgeLossDB(-0.78)
	hi := knifeEdgeLossDB(-0.7799)
	if math.Abs(lo-0) > 1e-12 {
		t.Fatalf("J(-0.78) = %v, want 0", lo)
	}
	if hi < 0 || hi > 0.05 {
		t.Fatalf("J just above threshold = %v, want ≈0", hi)
	}
	prev := -1.0
	for v := -0.78; v <= 3; v += 0.05 {
		j := knifeEdgeLossDB(v)
		if j < prev {
			t.Fatalf("J not monotone at v=%v", v)
		}
		prev = j
	}
	// Reference value: J(0) ≈ 6 dB (half-plane grazing incidence).
	if j0 := knifeEdgeLossDB(0); math.Abs(j0-6.0) > 0.5 {
		t.Fatalf("J(0) = %v, want ≈6 dB", j0)
	}
}

func TestEchoAmplitudeScale(t *testing.T) {
	b := Body{RCS: 4 * math.Pi}
	if got := b.EchoAmplitudeScale(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("scale = %v, want 1", got)
	}
	if got := (Body{RCS: 0}).EchoAmplitudeScale(); got != 0 {
		t.Fatalf("zero RCS scale = %v", got)
	}
	if got := (Body{RCS: -1}).EchoAmplitudeScale(); got != 0 {
		t.Fatalf("negative RCS scale = %v", got)
	}
}

func TestDefaultBody(t *testing.T) {
	b := Default(geom.Point{X: 1, Y: 2})
	if b.Position != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("position = %v", b.Position)
	}
	if b.Radius <= 0 || b.RCS <= 0 {
		t.Fatalf("default body not physical: %+v", b)
	}
}

func TestShadowDeeperBlockMoreLoss(t *testing.T) {
	// A larger body blocking the same path must attenuate at least as much.
	small := Body{Position: geom.Point{X: 2, Y: 0}, Radius: 0.1, RCS: 0.5}
	large := Body{Position: geom.Point{X: 2, Y: 0}, Radius: 0.3, RCS: 0.5}
	gs := small.ShadowGain(losPath(4), wavelength)
	gl := large.ShadowGain(losPath(4), wavelength)
	if gl > gs {
		t.Fatalf("larger body shadows less: %v > %v", gl, gs)
	}
}
