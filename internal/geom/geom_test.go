package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Fatalf("dot = %v", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Fatalf("cross = %v", got)
	}
}

func TestNormDistAngle(t *testing.T) {
	p := Point{3, 4}
	if math.Abs(p.Norm()-5) > eps {
		t.Fatalf("norm = %v", p.Norm())
	}
	if math.Abs(p.Dist(Point{0, 0})-5) > eps {
		t.Fatalf("dist = %v", p.Dist(Point{}))
	}
	if math.Abs((Point{0, 1}).Angle()-math.Pi/2) > eps {
		t.Fatalf("angle = %v", (Point{0, 1}).Angle())
	}
	if math.Abs((Point{-1, 0}).Angle()-math.Pi) > eps {
		t.Fatalf("angle = %v", (Point{-1, 0}).Angle())
	}
}

func TestSegmentLengthMidpointAt(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 0}}
	if math.Abs(s.Length()-4) > eps {
		t.Fatalf("length = %v", s.Length())
	}
	if s.Midpoint() != (Point{2, 0}) {
		t.Fatalf("midpoint = %v", s.Midpoint())
	}
	if s.PointAt(0.25) != (Point{1, 0}) {
		t.Fatalf("pointat = %v", s.PointAt(0.25))
	}
}

func TestClosestPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	tests := []struct {
		p     Point
		wantC Point
		wantT float64
	}{
		{Point{5, 3}, Point{5, 0}, 0.5},
		{Point{-2, 1}, Point{0, 0}, 0},   // clamped to A
		{Point{12, -1}, Point{10, 0}, 1}, // clamped to B
		{Point{0, 0}, Point{0, 0}, 0},    // on endpoint
		{Point{7, 0}, Point{7, 0}, 0.7},  // on segment
	}
	for _, tc := range tests {
		c, tt := s.ClosestPoint(tc.p)
		if c.Dist(tc.wantC) > eps || math.Abs(tt-tc.wantT) > eps {
			t.Fatalf("closest(%v) = %v,%v want %v,%v", tc.p, c, tt, tc.wantC, tc.wantT)
		}
	}
	// Degenerate segment.
	d := Segment{Point{1, 1}, Point{1, 1}}
	c, tt := d.ClosestPoint(Point{5, 5})
	if c != (Point{1, 1}) || tt != 0 {
		t.Fatalf("degenerate closest = %v,%v", c, tt)
	}
}

func TestDistToPoint(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	if d := s.DistToPoint(Point{5, 3}); math.Abs(d-3) > eps {
		t.Fatalf("dist = %v", d)
	}
	if d := s.DistToPoint(Point{13, 4}); math.Abs(d-5) > eps {
		t.Fatalf("dist past end = %v", d)
	}
}

// TestContains checks the distances a containment tolerance of 0.01 m
// separates: a point just off the segment and one a metre away.
func TestContains(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	if d := s.DistToPoint(Point{5, 0.001}); math.Abs(d-0.001) > eps {
		t.Fatalf("near dist = %v", d)
	}
	if d := s.DistToPoint(Point{5, 1}); math.Abs(d-1) > eps {
		t.Fatalf("far dist = %v", d)
	}
}

func TestMirror(t *testing.T) {
	wall := Segment{Point{0, 2}, Point{10, 2}} // horizontal line y=2
	img := wall.Mirror(Point{3, 0})
	if img.Dist(Point{3, 4}) > eps {
		t.Fatalf("mirror = %v, want (3,4)", img)
	}
	// Point on the line maps to itself.
	on := wall.Mirror(Point{5, 2})
	if on.Dist(Point{5, 2}) > eps {
		t.Fatalf("mirror on line = %v", on)
	}
	// Degenerate wall returns the point unchanged.
	deg := Segment{Point{1, 1}, Point{1, 1}}
	if deg.Mirror(Point{4, 5}) != (Point{4, 5}) {
		t.Fatal("degenerate mirror changed point")
	}
}

func TestMirrorInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		wall := Segment{
			Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5},
			Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5},
		}
		if wall.Length() < 1e-6 {
			continue
		}
		p := Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		back := wall.Mirror(wall.Mirror(p))
		if back.Dist(p) > 1e-7 {
			t.Fatalf("mirror not involutive: %v -> %v", p, back)
		}
	}
}

func TestMirrorPreservesDistanceToLine(t *testing.T) {
	wall := Segment{Point{0, 0}, Point{1, 1}}
	p := Point{2, 0}
	img := wall.Mirror(p)
	// Distances to the infinite line must match.
	dP := math.Abs(wall.B.Sub(wall.A).Cross(p.Sub(wall.A))) / wall.Length()
	dI := math.Abs(wall.B.Sub(wall.A).Cross(img.Sub(wall.A))) / wall.Length()
	if math.Abs(dP-dI) > eps {
		t.Fatalf("mirror distance %v vs %v", dP, dI)
	}
}

func TestIntersect(t *testing.T) {
	a := Segment{Point{0, 0}, Point{4, 4}}
	b := Segment{Point{0, 4}, Point{4, 0}}
	p, ok := a.Intersect(b)
	if !ok || p.Dist(Point{2, 2}) > eps {
		t.Fatalf("intersect = %v %v", p, ok)
	}
	// Non-intersecting.
	c := Segment{Point{10, 10}, Point{11, 11}}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint segments intersect")
	}
	// Parallel.
	d := Segment{Point{0, 1}, Point{4, 5}}
	if _, ok := a.Intersect(d); ok {
		t.Fatal("parallel segments intersect")
	}
	// Touching at endpoint counts.
	e := Segment{Point{4, 4}, Point{8, 0}}
	if _, ok := a.Intersect(e); !ok {
		t.Fatal("endpoint touch not detected")
	}
}

func TestPolyline(t *testing.T) {
	pl := Polyline{{0, 0}, {3, 0}, {3, 4}}
	if math.Abs(pl.Length()-7) > eps {
		t.Fatalf("polyline length = %v", pl.Length())
	}
	segs := pl.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	if segs[1].A != (Point{3, 0}) || segs[1].B != (Point{3, 4}) {
		t.Fatalf("segment 1 = %v", segs[1])
	}
	if (Polyline{{1, 1}}).Segments() != nil {
		t.Fatal("single-point polyline should have no segments")
	}
	if (Polyline{}).Length() != 0 {
		t.Fatal("empty polyline length != 0")
	}
}

func TestDegRadConversions(t *testing.T) {
	if math.Abs(DegToRad(180)-math.Pi) > eps {
		t.Fatalf("deg2rad(180) = %v", DegToRad(180))
	}
	if math.Abs(RadToDeg(math.Pi/2)-90) > eps {
		t.Fatalf("rad2deg(pi/2) = %v", RadToDeg(math.Pi/2))
	}
	for _, d := range []float64{-90, -45, 0, 30, 270} {
		if math.Abs(RadToDeg(DegToRad(d))-d) > 1e-9 {
			t.Fatalf("roundtrip %v", d)
		}
	}
}

// Property: triangle inequality for Dist.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a := Point{ax, ay}
		b := Point{bx, by}
		c := Point{cx, cy}
		lhs := a.Dist(c)
		rhs := a.Dist(b) + b.Dist(c)
		return lhs <= rhs*(1+1e-12)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the closest point on a segment is never farther than either
// endpoint.
func TestQuickClosestPointOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		s := Segment{
			Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10},
			Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10},
		}
		p := Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		d := s.DistToPoint(p)
		if d > p.Dist(s.A)+1e-9 || d > p.Dist(s.B)+1e-9 {
			t.Fatalf("closest point worse than endpoint: %v vs %v/%v", d, p.Dist(s.A), p.Dist(s.B))
		}
		// Also never better than the infinite-line distance.
		if s.Length() > 1e-9 {
			lineD := math.Abs(s.B.Sub(s.A).Cross(p.Sub(s.A))) / s.Length()
			if d < lineD-1e-9 {
				t.Fatalf("segment distance below line distance: %v < %v", d, lineD)
			}
		}
	}
}

// Property: image method — for any wall and points P, Q on the same side,
// the reflected path length |P→X| + |X→Q| via the wall equals |mirror(P)→Q|.
func TestQuickImageMethodPathLength(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wall := Segment{Point{0, 0}, Point{10, 0}}
	for i := 0; i < 200; i++ {
		p := Point{rng.Float64() * 10, 0.1 + rng.Float64()*5}
		q := Point{rng.Float64() * 10, 0.1 + rng.Float64()*5}
		img := wall.Mirror(p)
		// Bounce point: intersection of img→q with the wall line.
		bounce, ok := wall.Intersect(Segment{img, q})
		if !ok {
			continue
		}
		got := p.Dist(bounce) + bounce.Dist(q)
		want := img.Dist(q)
		if math.Abs(got-want) > 1e-7 {
			t.Fatalf("image path length %v != %v", got, want)
		}
	}
}
