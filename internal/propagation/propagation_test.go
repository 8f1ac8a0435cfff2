package propagation

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"mlink/internal/body"
	"mlink/internal/geom"
)

const (
	testFreq = 2.462e9
	lambda   = SpeedOfLight / testFreq
)

func mustRoom(t *testing.T, w, h float64) *Room {
	t.Helper()
	r, err := RectRoom(w, h, Drywall)
	if err != nil {
		t.Fatalf("rect room: %v", err)
	}
	return r
}

func mustULA(t *testing.T, center geom.Point, broadside float64, n int) Array {
	t.Helper()
	a, err := NewULA(center, broadside, n, lambda/2)
	if err != nil {
		t.Fatalf("ula: %v", err)
	}
	return a
}

func mustEnv(t *testing.T, room *Room, tx geom.Point, rx Array, bounces int) *Environment {
	t.Helper()
	e, err := NewEnvironment(room, tx, rx, DefaultLinkParams(), bounces)
	if err != nil {
		t.Fatalf("environment: %v", err)
	}
	return e
}

func TestRectRoom(t *testing.T) {
	r := mustRoom(t, 6, 8)
	if len(r.Walls) != 4 {
		t.Fatalf("walls = %d", len(r.Walls))
	}
	var perim float64
	for _, w := range r.Walls {
		perim += w.Seg.Length()
	}
	if math.Abs(perim-28) > 1e-9 {
		t.Fatalf("perimeter = %v", perim)
	}
	if _, err := RectRoom(0, 5, Drywall); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("zero width err = %v", err)
	}
	if _, err := RectRoom(5, -1, Drywall); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("negative height err = %v", err)
	}
}

func TestTraceLOSOnly(t *testing.T) {
	r := mustRoom(t, 6, 8)
	tr := Tracer{Room: r, MaxBounces: 0}
	rays, err := tr.Trace(geom.Point{X: 1, Y: 4}, geom.Point{X: 5, Y: 4})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(rays) != 1 || rays[0].Kind != KindLOS {
		t.Fatalf("rays = %+v", rays)
	}
	if math.Abs(rays[0].Length()-4) > 1e-9 {
		t.Fatalf("los length = %v", rays[0].Length())
	}
	if rays[0].Gain != 1 || rays[0].PhaseFlips != 0 {
		t.Fatalf("los gain/flips = %v/%v", rays[0].Gain, rays[0].PhaseFlips)
	}
}

func TestTraceCoincidentEndpoints(t *testing.T) {
	r := mustRoom(t, 6, 8)
	tr := Tracer{Room: r, MaxBounces: 0}
	if _, err := tr.Trace(geom.Point{X: 1, Y: 1}, geom.Point{X: 1, Y: 1}); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("coincident err = %v", err)
	}
}

func TestTraceOneBounceCount(t *testing.T) {
	// In a rectangle, two interior points see one specular bounce off each
	// of the four walls.
	r := mustRoom(t, 6, 8)
	tr := Tracer{Room: r, MaxBounces: 1}
	rays, err := tr.Trace(geom.Point{X: 1, Y: 4}, geom.Point{X: 5, Y: 4})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var los, bounce int
	for _, ray := range rays {
		switch ray.Kind {
		case KindLOS:
			los++
		case KindWallBounce:
			bounce++
			if len(ray.Points) != 3 {
				t.Fatalf("bounce ray has %d points", len(ray.Points))
			}
			if ray.PhaseFlips != 1 {
				t.Fatalf("bounce flips = %d", ray.PhaseFlips)
			}
		}
	}
	if los != 1 || bounce != 4 {
		t.Fatalf("los=%d bounce=%d, want 1 and 4", los, bounce)
	}
}

func TestTraceBounceGeometry(t *testing.T) {
	// Specular law: the bounce point off the bottom wall of a symmetric
	// link lies at the horizontal midpoint.
	r := mustRoom(t, 6, 8)
	tr := Tracer{Room: r, MaxBounces: 1}
	rays, _ := tr.Trace(geom.Point{X: 1, Y: 4}, geom.Point{X: 5, Y: 4})
	found := false
	for _, ray := range rays {
		if ray.Kind != KindWallBounce {
			continue
		}
		b := ray.Points[1]
		if math.Abs(b.Y) < 1e-9 { // bottom wall y=0
			found = true
			if math.Abs(b.X-3) > 1e-9 {
				t.Fatalf("bottom bounce at x=%v, want 3", b.X)
			}
			// Path length = image distance: sqrt(4² + 8²).
			want := math.Hypot(4, 8)
			if math.Abs(ray.Length()-want) > 1e-9 {
				t.Fatalf("bounce length = %v, want %v", ray.Length(), want)
			}
		}
	}
	if !found {
		t.Fatal("no bottom-wall bounce found")
	}
}

func TestTraceTwoBounce(t *testing.T) {
	r := mustRoom(t, 6, 8)
	tr := Tracer{Room: r, MaxBounces: 2}
	rays, _ := tr.Trace(geom.Point{X: 1, Y: 4}, geom.Point{X: 5, Y: 4})
	var two int
	for _, ray := range rays {
		if len(ray.Points) == 4 {
			two++
			if ray.PhaseFlips != 2 {
				t.Fatalf("two-bounce flips = %d", ray.PhaseFlips)
			}
			if ray.Gain <= 0 || ray.Gain >= 1 {
				t.Fatalf("two-bounce gain = %v", ray.Gain)
			}
			// Both bounce points must lie on walls.
			for _, b := range ray.Points[1:3] {
				onWall := false
				for _, w := range r.Walls {
					if w.Seg.DistToPoint(b) < 1e-6 {
						onWall = true
					}
				}
				if !onWall {
					t.Fatalf("bounce point %v not on any wall", b)
				}
			}
		}
	}
	if two == 0 {
		t.Fatal("no two-bounce rays found")
	}
}

func TestTraceObstacleBlocksLOS(t *testing.T) {
	r := mustRoom(t, 6, 8)
	// A metal partition crossing the link.
	r.AddObstacle(geom.Segment{A: geom.Point{X: 3, Y: 3}, B: geom.Point{X: 3, Y: 5}}, Metal)
	tr := Tracer{Room: r, MaxBounces: 0}
	rays, err := tr.Trace(geom.Point{X: 1, Y: 4}, geom.Point{X: 5, Y: 4})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(rays) != 0 {
		t.Fatalf("blocked LOS produced %d rays", len(rays))
	}
}

func TestNewULAGeometry(t *testing.T) {
	a := mustULA(t, geom.Point{X: 2, Y: 3}, 0, 3)
	if len(a.Elements) != 3 {
		t.Fatalf("elements = %d", len(a.Elements))
	}
	// Facing +x, axis is +y: elements differ in y by λ/2.
	if math.Abs(a.Elements[1].Sub(a.Elements[0]).Y-lambda/2) > 1e-12 {
		t.Fatalf("element spacing wrong: %v", a.Elements)
	}
	// Centre element at the array centre for odd n.
	if a.Elements[1].Dist(geom.Point{X: 2, Y: 3}) > 1e-12 {
		t.Fatalf("centre element at %v", a.Elements[1])
	}
	offs := a.Offsets()
	if math.Abs(offs[0]+lambda/2) > 1e-12 || math.Abs(offs[1]) > 1e-12 || math.Abs(offs[2]-lambda/2) > 1e-12 {
		t.Fatalf("offsets = %v", offs)
	}
	if _, err := NewULA(geom.Point{}, 0, 0, lambda/2); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("0-element err = %v", err)
	}
	if _, err := NewULA(geom.Point{}, 0, 3, 0); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("0-spacing err = %v", err)
	}
}

func TestRelativeAngleWrap(t *testing.T) {
	a := Array{Broadside: math.Pi}
	if d := a.RelativeAngle(-math.Pi + 0.1); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("wrap = %v, want 0.1", d)
	}
	if d := a.RelativeAngle(math.Pi - 0.1); math.Abs(d+0.1) > 1e-12 {
		t.Fatalf("wrap = %v, want -0.1", d)
	}
}

func TestEnvironmentValidation(t *testing.T) {
	r := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 3)
	if _, err := NewEnvironment(nil, geom.Point{X: 1, Y: 4}, rx, DefaultLinkParams(), 1); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("nil room err = %v", err)
	}
	if _, err := NewEnvironment(r, geom.Point{X: 1, Y: 4}, Array{}, DefaultLinkParams(), 1); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("empty array err = %v", err)
	}
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 1)
	if got := len(e.staticRays[0]); got != 5 {
		t.Fatalf("static rays = %d, want 5 (LOS + 4 bounces)", got)
	}
}

func TestFreeSpaceAmplitudeMatchesFriis(t *testing.T) {
	// With n=2 the LOS amplitude must equal the Friis form c/(4πdf).
	r := mustRoom(t, 20, 20)
	r.PathLossExponent = 2
	for i := range r.Walls {
		r.Walls[i].Mat.Reflectivity = 0 // kill reflections
	}
	rx := mustULA(t, geom.Point{X: 14, Y: 10}, math.Pi, 1)
	e := mustEnv(t, r, geom.Point{X: 10, Y: 10}, rx, 2)
	h := e.ResponseAt(testFreq, 0, nil)
	d := 4.0
	want := SpeedOfLight / (4 * math.Pi * d * testFreq)
	if math.Abs(cmplx.Abs(h)-want) > 1e-12*want {
		t.Fatalf("|H| = %v, want %v", cmplx.Abs(h), want)
	}
	// Phase must be -2πfd/c modulo 2π.
	wantPhase := math.Mod(-2*math.Pi*testFreq*d/SpeedOfLight, 2*math.Pi)
	gotPhase := cmplx.Phase(h)
	diff := math.Mod(gotPhase-wantPhase+3*math.Pi, 2*math.Pi) - math.Pi
	if math.Abs(diff) > 1e-6 {
		t.Fatalf("phase = %v, want %v", gotPhase, wantPhase)
	}
}

func TestResponsePowerDecaysWithDistance(t *testing.T) {
	r := mustRoom(t, 30, 30)
	for i := range r.Walls {
		r.Walls[i].Mat.Reflectivity = 0
	}
	tx := geom.Point{X: 1, Y: 15}
	prev := math.Inf(1)
	for _, d := range []float64{2, 4, 8, 16} {
		rx := mustULA(t, geom.Point{X: 1 + d, Y: 15}, math.Pi, 1)
		e := mustEnv(t, r, tx, rx, 0)
		p := cmplx.Abs(e.ResponseAt(testFreq, 0, nil))
		if p >= prev {
			t.Fatalf("amplitude did not decay at d=%v: %v >= %v", d, p, prev)
		}
		prev = p
	}
}

func TestMultipathRichness(t *testing.T) {
	// With reflective walls, total power differs from LOS-only power and
	// varies across frequency (frequency-selective fading).
	r := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 1)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 2)
	h1 := cmplx.Abs(e.ResponseAt(2.452e9, 0, nil))
	h2 := cmplx.Abs(e.ResponseAt(2.472e9, 0, nil))
	if math.Abs(h1-h2)/math.Max(h1, h2) < 1e-4 {
		t.Fatalf("no frequency selectivity: %v vs %v", h1, h2)
	}
}

func TestHumanShadowingDropsLOSPower(t *testing.T) {
	r := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 3)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 1)
	blocker := body.Default(geom.Point{X: 3, Y: 4})
	los0, _ := e.OracleLOS(testFreq, 1, nil)
	losB, _ := e.OracleLOS(testFreq, 1, []body.Body{blocker})
	if losB >= los0 {
		t.Fatalf("blocking body did not reduce LOS power: %v >= %v", losB, los0)
	}
	if losB > los0*0.7 {
		t.Fatalf("blocking attenuation too weak: %v of %v", losB, los0)
	}
}

func TestHumanEchoAddsPath(t *testing.T) {
	r := mustRoom(t, 6, 8)
	for i := range r.Walls {
		r.Walls[i].Mat.Reflectivity = 0
	}
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 1)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 0)
	// Body well off the LOS: pure echo, no shadowing.
	b := body.Default(geom.Point{X: 3, Y: 6})
	h0 := e.ResponseAt(testFreq, 0, nil)
	hb := e.ResponseAt(testFreq, 0, []body.Body{b})
	if cmplx.Abs(hb-h0) == 0 {
		t.Fatal("echo contributed nothing")
	}
	// The echo must be much weaker than the LOS.
	if cmplx.Abs(hb-h0) > 0.5*cmplx.Abs(h0) {
		t.Fatalf("echo implausibly strong: %v vs LOS %v", cmplx.Abs(hb-h0), cmplx.Abs(h0))
	}
	// Zero-RCS body contributes no echo.
	ghost := body.Body{Position: geom.Point{X: 3, Y: 6}, Radius: 0.2, RCS: 0}
	hg := e.ResponseAt(testFreq, 0, []body.Body{ghost})
	if hg != h0 {
		t.Fatalf("zero-RCS body changed response: %v vs %v", hg, h0)
	}
}

func TestEchoFartherIsWeaker(t *testing.T) {
	r := mustRoom(t, 12, 12)
	for i := range r.Walls {
		r.Walls[i].Mat.Reflectivity = 0
	}
	rx := mustULA(t, geom.Point{X: 9, Y: 6}, math.Pi, 1)
	e := mustEnv(t, r, geom.Point{X: 3, Y: 6}, rx, 0)
	h0 := e.ResponseAt(testFreq, 0, nil)
	near := body.Default(geom.Point{X: 6, Y: 7})
	far := body.Default(geom.Point{X: 6, Y: 11})
	dNear := cmplx.Abs(e.ResponseAt(testFreq, 0, []body.Body{near}) - h0)
	dFar := cmplx.Abs(e.ResponseAt(testFreq, 0, []body.Body{far}) - h0)
	if dFar >= dNear {
		t.Fatalf("far echo stronger than near echo: %v >= %v", dFar, dNear)
	}
}

func TestResponseGridShape(t *testing.T) {
	r := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 3)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 1)
	freqs := []float64{2.45e9, 2.46e9, 2.47e9}
	h := e.Response(freqs, nil)
	if len(h) != 3 {
		t.Fatalf("antennas = %d", len(h))
	}
	for i, row := range h {
		if len(row) != 3 {
			t.Fatalf("row %d len = %d", i, len(row))
		}
		for k, v := range row {
			if v == 0 {
				t.Fatalf("H[%d][%d] = 0", i, k)
			}
		}
	}
}

func TestOracleLOSRatioInRange(t *testing.T) {
	r := mustRoom(t, 6, 8)
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 3)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 2)
	los, total := e.OracleLOS(testFreq, 1, nil)
	if los <= 0 || total <= 0 {
		t.Fatalf("powers = %v %v", los, total)
	}
	mu := los / total
	// With sub-unity wall reflectivity the LOS dominates but multipath is
	// present: μ should be O(1) and not degenerate.
	if mu < 0.2 || mu > 5 {
		t.Fatalf("oracle multipath factor = %v, implausible", mu)
	}
}

func TestTrueAoAsLOSAngle(t *testing.T) {
	r := mustRoom(t, 6, 8)
	// Array at (5,4) facing -x; TX at (1,4): LOS arrives from broadside (0°).
	rx := mustULA(t, geom.Point{X: 5, Y: 4}, math.Pi, 3)
	e := mustEnv(t, r, geom.Point{X: 1, Y: 4}, rx, 1)
	angles, amps := e.TrueAoAs(testFreq)
	if len(angles) == 0 || len(angles) != len(amps) {
		t.Fatalf("angles/amps = %v/%v", angles, amps)
	}
	// Strongest ray is the LOS; its relative angle must be ≈0.
	best := 0
	for i := range amps {
		if amps[i] > amps[best] {
			best = i
		}
	}
	if math.Abs(angles[best]) > 1e-9 {
		t.Fatalf("LOS relative angle = %v, want 0", angles[best])
	}
}

func TestRayKindString(t *testing.T) {
	for k, want := range map[RayKind]string{
		KindLOS:        "los",
		KindWallBounce: "wall-bounce",
		KindHumanEcho:  "human-echo",
		KindBackground: "background",
		RayKind(99):    "raykind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("kind %d = %q, want %q", int(k), got, want)
		}
	}
}

func TestRayAoADegenerate(t *testing.T) {
	if (Ray{}).AoA() != 0 {
		t.Fatal("empty ray AoA != 0")
	}
}
