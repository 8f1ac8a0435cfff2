package scenario

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mlink/internal/geom"
	"mlink/internal/propagation"
)

func TestClassroomBuilds(t *testing.T) {
	s, err := Classroom(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.LinkLength()-4) > 1e-9 {
		t.Fatalf("link length = %v", s.LinkLength())
	}
	if s.Grid.Len() != 30 {
		t.Fatalf("grid len = %d", s.Grid.Len())
	}
	x, err := s.NewExtractor(0)
	if err != nil {
		t.Fatal(err)
	}
	f := x.Capture(nil)
	if f.NumAntennas() != 3 || f.NumSubcarriers() != 30 {
		t.Fatalf("frame shape %dx%d", f.NumAntennas(), f.NumSubcarriers())
	}
}

func TestAllLinkCasesBuild(t *testing.T) {
	lengths := map[int]float64{}
	for n := 1; n <= NumLinkCases; n++ {
		s, err := LinkCase(n, int64(n))
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		lengths[n] = s.LinkLength()
		if s.Name == "" {
			t.Fatalf("case %d unnamed", n)
		}
		// Every case must produce CSI.
		x, err := s.NewExtractor(0)
		if err != nil {
			t.Fatalf("case %d extractor: %v", n, err)
		}
		if f := x.Capture(nil); f.NumSubcarriers() != 30 {
			t.Fatalf("case %d capture broken", n)
		}
	}
	// Diverse TX-RX distances (Fig. 6): case 3 is the shortest.
	for n, l := range lengths {
		if n == 3 {
			continue
		}
		if lengths[3] >= l {
			t.Fatalf("case 3 (%.2f m) not the shortest vs case %d (%.2f m)", lengths[3], n, l)
		}
	}
	if _, err := LinkCase(0, 1); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("case 0 err = %v", err)
	}
	if _, err := LinkCase(6, 1); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("case 6 err = %v", err)
	}
}

func TestShortLinkNearWall(t *testing.T) {
	s, err := ShortLinkNearWall(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.LinkLength()-3) > 1e-9 {
		t.Fatalf("link length = %v", s.LinkLength())
	}
	// The link must sit near the concrete top wall (y=8).
	if s.LinkMidpoint().Y < 6 {
		t.Fatalf("link not near wall: %v", s.LinkMidpoint())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Spec{NumAnts: 3}); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("nil room err = %v", err)
	}
	room, err := propagation.RectRoom(6, 8, propagation.Drywall)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Spec{Room: room, NumAnts: 0}); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("0 antennas err = %v", err)
	}
}

func TestGrid3x3(t *testing.T) {
	s, err := Classroom(3)
	if err != nil {
		t.Fatal(err)
	}
	grid := s.Grid3x3()
	if len(grid) != 9 {
		t.Fatalf("grid size = %d", len(grid))
	}
	// All points must lie within the room.
	for _, p := range grid {
		if p.X < 0 || p.X > 6 || p.Y < 0 || p.Y > 8 {
			t.Fatalf("grid point %v outside room", p)
		}
	}
	// Exactly three on the LOS line (lateral 0).
	link := geom.Segment{A: s.TX(), B: s.RXCenter()}
	onLink := 0
	for _, p := range grid {
		if link.DistToPoint(p) < 1e-9 {
			onLink++
		}
	}
	if onLink != 3 {
		t.Fatalf("on-link grid points = %d, want 3", onLink)
	}
}

func TestRandomPresenceLocations(t *testing.T) {
	s, err := Classroom(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	locs := s.RandomPresenceLocations(500, 1.0, rng)
	if len(locs) != 500 {
		t.Fatalf("locations = %d", len(locs))
	}
	link := geom.Segment{A: s.TX(), B: s.RXCenter()}
	for _, p := range locs {
		if d := link.DistToPoint(p); d > 1.0+1e-9 {
			t.Fatalf("location %v is %v m from link, want ≤1", p, d)
		}
	}
}

func TestCrossingTrajectory(t *testing.T) {
	s, err := Classroom(5)
	if err != nil {
		t.Fatal(err)
	}
	traj := s.CrossingTrajectory(1000, 3)
	if len(traj) != 1000 {
		t.Fatalf("trajectory length = %d", len(traj))
	}
	// Starts 1.5 m on one side, ends 1.5 m on the other, crosses the link.
	link := geom.Segment{A: s.TX(), B: s.RXCenter()}
	d0 := link.DistToPoint(traj[0])
	dMid := link.DistToPoint(traj[500])
	dEnd := link.DistToPoint(traj[999])
	if math.Abs(d0-1.5) > 0.01 || math.Abs(dEnd-1.5) > 0.01 {
		t.Fatalf("span wrong: %v ... %v", d0, dEnd)
	}
	if dMid > 0.01 {
		t.Fatalf("midpoint distance = %v, want ≈0", dMid)
	}
}

func TestAngularArc(t *testing.T) {
	s, err := ShortLinkNearWall(6)
	if err != nil {
		t.Fatal(err)
	}
	arc := s.AngularArc(16, 1.0, -90, 90)
	if len(arc) != 16 {
		t.Fatalf("arc points = %d", len(arc))
	}
	for _, p := range arc {
		if math.Abs(p.Dist(s.RXCenter())-1.0) > 1e-9 {
			t.Fatalf("arc point %v not at radius 1", p)
		}
	}
	// First point at -90°, last at +90° relative to broadside.
	rel0 := s.Env.RX.RelativeAngle(arc[0].Sub(s.RXCenter()).Angle())
	relN := s.Env.RX.RelativeAngle(arc[15].Sub(s.RXCenter()).Angle())
	if math.Abs(geom.RadToDeg(rel0)+90) > 1e-6 || math.Abs(geom.RadToDeg(relN)-90) > 1e-6 {
		t.Fatalf("arc angles = %v ... %v", geom.RadToDeg(rel0), geom.RadToDeg(relN))
	}
}

func TestNewSessionJitters(t *testing.T) {
	s, err := Classroom(7)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	// TX moved by ~cm, not by metres.
	d := sess.TX().Dist(s.TX())
	if d == 0 || d > 0.1 {
		t.Fatalf("session TX jitter = %v m", d)
	}
	// Different sessions differ.
	sess2, err := s.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.TX() == sess.TX() {
		t.Fatal("sessions identical")
	}
}

func TestExtractorDeterminism(t *testing.T) {
	s, err := Classroom(8)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := s.NewExtractor(5)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := s.NewExtractor(5)
	if err != nil {
		t.Fatal(err)
	}
	f1 := x1.Capture(nil)
	f2 := x2.Capture(nil)
	for ant := range f1.CSI {
		for k := range f1.CSI[ant] {
			if f1.CSI[ant][k] != f2.CSI[ant][k] {
				t.Fatal("same seed offset produced different CSI")
			}
		}
	}
	x3, err := s.NewExtractor(6)
	if err != nil {
		t.Fatal(err)
	}
	f3 := x3.Capture(nil)
	same := true
	for ant := range f1.CSI {
		for k := range f1.CSI[ant] {
			if f1.CSI[ant][k] != f3.CSI[ant][k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seed offsets produced identical CSI")
	}
}

func TestBackground(t *testing.T) {
	s, err := Classroom(9)
	if err != nil {
		t.Fatal(err)
	}
	anchors := DefaultAnchors(s)
	if len(anchors) != 3 {
		t.Fatalf("anchors = %d", len(anchors))
	}
	// Anchors stay far from the link midpoint (the paper keeps students
	// ~5 m away; our room bounds that at >2.5 m).
	for _, a := range anchors {
		if a.Dist(s.LinkMidpoint()) < 2.5 {
			t.Fatalf("anchor %v too close to link", a)
		}
	}
	rng := rand.New(rand.NewSource(10))
	bg, err := NewBackground(3, anchors, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bg.positions) != 3 {
		t.Fatalf("bg len = %d", len(bg.positions))
	}
	for step := 0; step < 500; step++ {
		bodies := bg.Step()
		if len(bodies) != 3 {
			t.Fatalf("bodies = %d", len(bodies))
		}
		for i, b := range bodies {
			if b.Position.Dist(anchors[i]) > bg.Tether+1e-9 {
				t.Fatalf("body %d broke tether: %v", i, b.Position)
			}
		}
	}
	// Motion must actually happen.
	p0 := append([]geom.Point(nil), bg.positions...)
	bg.Step()
	p1 := bg.positions
	moved := false
	for i := range p0 {
		if p0[i] != p1[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("background people frozen")
	}
}

func TestBackgroundValidation(t *testing.T) {
	if _, err := NewBackground(-1, nil, nil); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("negative n err = %v", err)
	}
	if _, err := NewBackground(2, nil, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("no anchors err = %v", err)
	}
	if _, err := NewBackground(2, []geom.Point{{X: 1, Y: 1}}, nil); !errors.Is(err, ErrBadScenario) {
		t.Fatalf("nil rng err = %v", err)
	}
	empty, err := NewBackground(0, nil, nil)
	if err != nil {
		t.Fatalf("zero people rejected: %v", err)
	}
	if got := empty.Step(); len(got) != 0 {
		t.Fatalf("zero-people step = %v", got)
	}
}
