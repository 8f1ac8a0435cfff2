package body

import (
	"math"

	"mlink/internal/geom"
)

// Body is a human target (or background person) in the room plane.
type Body struct {
	// Position is the body-axis location in room coordinates (metres).
	Position geom.Point
	// Radius is the effective cylinder radius in metres (≈0.15–0.3 for a
	// standing adult, shoulder orientation dependent).
	Radius float64
	// RCS is the bistatic radar cross-section in m² governing how much power
	// the body scatters towards the receiver (≈0.3–1.0 at 2.4 GHz).
	RCS float64
}

// Default returns a typical adult standing at p.
func Default(p geom.Point) Body {
	return Body{Position: p, Radius: 0.2, RCS: 0.8}
}

// knifeEdgeLossDB returns the ITU-R P.526 approximation of single knife-edge
// diffraction loss in dB for Fresnel parameter v. Zero loss below the
// validity threshold v ≤ -0.78 (obstacle well clear of the first Fresnel
// zone).
func knifeEdgeLossDB(v float64) float64 {
	if v <= -0.78 {
		return 0
	}
	return 6.9 + 20*math.Log10(math.Sqrt((v-0.1)*(v-0.1)+1)+v-0.1)
}

// ShadowGeometry is the frequency-independent half of the knife-edge model
// for one (body, segment) pair. Callers that evaluate many wavelengths
// against fixed geometry (the propagation cache) compute it once and call
// GainAt per subcarrier.
type ShadowGeometry struct {
	// VCoeff is the wavelength-independent Fresnel coefficient
	// h·√(2(d1+d2)/(d1·d2)); the Fresnel parameter at wavelength λ is
	// v = VCoeff/√λ. Negative when the body sits clear of the ray.
	VCoeff float64
}

// SegmentGeometry classifies the body against one ray segment. It returns
// the obstruction geometry and whether the knife-edge gain can differ from 1
// at any wavelength ≤ maxLambda; when ok is false the pair contributes gain
// 1 at every such wavelength and may be skipped.
func (b Body) SegmentGeometry(seg geom.Segment, maxLambda float64) (g ShadowGeometry, ok bool) {
	closest, t := seg.ClosestPoint(b.Position)
	// The knife-edge model needs the obstacle strictly between the segment
	// endpoints; at the clamped ends the body sits beside a terminal, where
	// the blocking geometry degenerates. Treat near-endpoint positions as
	// non-obstructing (the endpoint is an antenna or a bounce point the body
	// would have to envelop to block, handled by the radius test below).
	d1 := seg.A.Dist(closest)
	d2 := closest.Dist(seg.B)
	if t <= 0 || t >= 1 || d1 < 1e-6 || d2 < 1e-6 {
		return ShadowGeometry{}, false
	}
	h := b.Radius - closest.Dist(b.Position)
	g = ShadowGeometry{VCoeff: h * math.Sqrt(2*(d1+d2)/(d1*d2))}
	if g.VCoeff < 0 {
		// |v| grows as λ shrinks, so a body that clears the Fresnel
		// threshold at the largest wavelength clears it at every shorter
		// one.
		if g.VCoeff/math.Sqrt(maxLambda) <= -0.78 {
			return ShadowGeometry{}, false
		}
	}
	return g, true
}

// GainAt evaluates the knife-edge amplitude gain (≤ 1) at one wavelength.
func (g ShadowGeometry) GainAt(wavelength float64) float64 {
	loss := knifeEdgeLossDB(g.VCoeff / math.Sqrt(wavelength))
	return math.Pow(10, -loss/20)
}

// segmentShadowGain returns the amplitude factor (≤ 1) a body imposes on one
// ray segment at the given wavelength.
func (b Body) segmentShadowGain(seg geom.Segment, wavelength float64) float64 {
	g, ok := b.SegmentGeometry(seg, wavelength)
	if !ok {
		return 1
	}
	return g.GainAt(wavelength)
}

// ShadowGain returns the total amplitude factor the body imposes on a
// multi-segment ray (product over segments). It equals 1 when the body is
// far from every segment and decreases smoothly as the body enters the first
// Fresnel zone of any leg.
func (b Body) ShadowGain(path geom.Polyline, wavelength float64) float64 {
	gain := 1.0
	for _, seg := range path.Segments() {
		gain *= b.segmentShadowGain(seg, wavelength)
	}
	return gain
}

// EchoAmplitudeScale returns the bistatic-radar amplitude scale factor
// √(σ/4π) used by the propagation package when it synthesizes the
// human-created reflection ray TX→body→RX.
func (b Body) EchoAmplitudeScale() float64 {
	if b.RCS <= 0 {
		return 0
	}
	return math.Sqrt(b.RCS / (4 * math.Pi))
}
