package scenario

import (
	"fmt"
	"math/rand"

	"mlink/internal/body"
	"mlink/internal/geom"
)

// Background models the environmental dynamics of §V-A: "up to 5 students
// work at their desks and occasionally walk around ... but remain about
// 5 meters away from the testing link". Each background person performs a
// bounded random walk around an anchor, contributing weak time-varying
// echoes and occasional shadowing of distant reflected paths — the dynamics
// responsible for the ROC plateau the paper discusses.
type Background struct {
	anchors   []geom.Point
	positions []geom.Point
	// StepSigma is the per-packet random-walk step (metres).
	StepSigma float64
	// Tether bounds how far a person may drift from their anchor.
	Tether float64
	// WalkProb is the chance per packet that a person takes a large step
	// (an "occasional walk").
	WalkProb float64
	rng      *rand.Rand
}

// NewBackground places n background people at the given anchors (cycled if
// n exceeds them).
func NewBackground(n int, anchors []geom.Point, rng *rand.Rand) (*Background, error) {
	if n < 0 {
		return nil, fmt.Errorf("%d background people: %w", n, ErrBadScenario)
	}
	if n > 0 && len(anchors) == 0 {
		return nil, fmt.Errorf("no anchors for %d people: %w", n, ErrBadScenario)
	}
	if n > 0 && rng == nil {
		return nil, fmt.Errorf("nil rng: %w", ErrBadScenario)
	}
	b := &Background{
		StepSigma: 0.02,
		Tether:    0.6,
		WalkProb:  0.01,
		rng:       rng,
	}
	for i := 0; i < n; i++ {
		a := anchors[i%len(anchors)]
		b.anchors = append(b.anchors, a)
		b.positions = append(b.positions, a)
	}
	return b, nil
}

// DefaultAnchors returns anchor points for background people in the far
// region of the scenario's room: the corner farthest from the link
// midpoint, offset inward.
func DefaultAnchors(s *Scenario) []geom.Point {
	mid := s.LinkMidpoint()
	// Probe the rectangle hull of the walls for the farthest region.
	var minX, minY, maxX, maxY float64
	first := true
	for _, w := range s.Env.Room.Walls {
		for _, p := range []geom.Point{w.Seg.A, w.Seg.B} {
			if first {
				minX, maxX, minY, maxY = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
	}
	corners := []geom.Point{
		{X: minX + 0.8, Y: minY + 0.8},
		{X: maxX - 0.8, Y: minY + 0.8},
		{X: minX + 0.8, Y: maxY - 0.8},
		{X: maxX - 0.8, Y: maxY - 0.8},
	}
	// Sort corners by distance from the link midpoint, farthest first
	// (insertion sort on 4 elements).
	for i := 1; i < len(corners); i++ {
		for j := i; j > 0 && corners[j].Dist(mid) > corners[j-1].Dist(mid); j-- {
			corners[j], corners[j-1] = corners[j-1], corners[j]
		}
	}
	return corners[:3]
}

// Step advances every background person one packet interval and returns
// their current body models.
func (b *Background) Step() []body.Body {
	out := make([]body.Body, len(b.positions))
	for i := range b.positions {
		step := b.StepSigma
		if b.rng.Float64() < b.WalkProb {
			step = b.StepSigma * 15 // occasional walk
		}
		cand := geom.Point{
			X: b.positions[i].X + b.rng.NormFloat64()*step,
			Y: b.positions[i].Y + b.rng.NormFloat64()*step,
		}
		// Tether to the anchor.
		if cand.Dist(b.anchors[i]) > b.Tether {
			dir := cand.Sub(b.anchors[i])
			cand = b.anchors[i].Add(dir.Scale(b.Tether / dir.Norm()))
		}
		b.positions[i] = cand
		out[i] = body.Body{Position: cand, Radius: 0.2, RCS: 0.4}
	}
	return out
}
