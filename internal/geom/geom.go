package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D point in metres.
type Point struct {
	X, Y float64
}

// Add returns p + q (treating q as a displacement).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Angle returns the direction of the vector p in radians in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// String renders the point for debugging.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// PointAt returns A + t·(B-A); t in [0,1] stays on the segment.
func (s Segment) PointAt(t float64) Point {
	return s.A.Add(s.B.Sub(s.A).Scale(t))
}

// ClosestPoint returns the point on the segment closest to p and the
// parameter t ∈ [0,1] of that point.
func (s Segment) ClosestPoint(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / len2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.PointAt(t), t
}

// DistToPoint returns the distance from p to the nearest point of the
// segment.
func (s Segment) DistToPoint(p Point) float64 {
	c, _ := s.ClosestPoint(p)
	return c.Dist(p)
}

// Mirror reflects p across the infinite line through the segment — the image
// method's virtual source construction.
func (s Segment) Mirror(p Point) Point {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return p
	}
	t := p.Sub(s.A).Dot(d) / len2
	foot := s.A.Add(d.Scale(t))
	return foot.Add(foot.Sub(p))
}

// Intersect returns the intersection point of segments s and o and whether
// they properly intersect (endpoints touching counts as intersecting).
func (s Segment) Intersect(o Segment) (Point, bool) {
	r := s.B.Sub(s.A)
	q := o.B.Sub(o.A)
	denom := r.Cross(q)
	diff := o.A.Sub(s.A)
	if denom == 0 {
		// Parallel (collinear overlap is reported as no single intersection).
		return Point{}, false
	}
	t := diff.Cross(q) / denom
	u := diff.Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Point{}, false
	}
	return s.PointAt(t), true
}

// Polyline is a connected sequence of points — a multi-bounce propagation
// path is a polyline from transmitter via bounce points to receiver.
type Polyline []Point

// Length returns the total length of the polyline.
func (pl Polyline) Length() float64 {
	var sum float64
	for i := 1; i < len(pl); i++ {
		sum += pl[i-1].Dist(pl[i])
	}
	return sum
}

// Segments returns the constituent segments of the polyline.
func (pl Polyline) Segments() []Segment {
	if len(pl) < 2 {
		return nil
	}
	out := make([]Segment, 0, len(pl)-1)
	for i := 1; i < len(pl); i++ {
		out = append(out, Segment{A: pl[i-1], B: pl[i]})
	}
	return out
}

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// RadToDeg converts radians to degrees.
func RadToDeg(rad float64) float64 { return rad * 180 / math.Pi }
