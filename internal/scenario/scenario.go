package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/propagation"
)

// ErrBadScenario reports an invalid scenario configuration.
var ErrBadScenario = errors.New("scenario: bad configuration")

// Scenario is a complete, buildable measurement setup.
type Scenario struct {
	// Name identifies the setup ("classroom", "case3", ...).
	Name string
	// Env is the built propagation environment.
	Env *propagation.Environment
	// Grid is the receiver's subcarrier grid.
	Grid *channel.Grid
	// Imp is the CSI impairment model.
	Imp csi.Impairments
	// PacketRate is the ping rate (the paper uses 50 packets/s).
	PacketRate float64
	// Seed is the base RNG seed; derive per-run seeds from it.
	Seed int64

	// Construction inputs, retained so sessions can re-build the
	// environment with jittered parameters.
	room       *propagation.Room
	tx         geom.Point
	rxCenter   geom.Point
	rxBrdside  float64
	numAnts    int
	params     propagation.LinkParams
	maxBounces int
}

// Spec collects the inputs needed to build a scenario.
type Spec struct {
	Name       string
	Room       *propagation.Room
	TX         geom.Point
	RXCenter   geom.Point
	NumAnts    int
	Params     propagation.LinkParams
	MaxBounces int
	Imp        csi.Impairments
	PacketRate float64
	Seed       int64
}

// Build constructs the scenario: the receive array is a λ/2 ULA centred at
// RXCenter facing the transmitter.
func Build(spec Spec) (*Scenario, error) {
	if spec.Room == nil {
		return nil, fmt.Errorf("nil room: %w", ErrBadScenario)
	}
	if spec.NumAnts < 1 {
		return nil, fmt.Errorf("%d antennas: %w", spec.NumAnts, ErrBadScenario)
	}
	grid, err := channel.NewIntel5300Grid(channel.CenterFreqChannel11)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	lambda := propagation.SpeedOfLight / grid.Center
	broadside := spec.TX.Sub(spec.RXCenter).Angle()
	rx, err := propagation.NewULA(spec.RXCenter, broadside, spec.NumAnts, lambda/2)
	if err != nil {
		return nil, fmt.Errorf("rx array: %w", err)
	}
	env, err := propagation.NewEnvironment(spec.Room, spec.TX, rx, spec.Params, spec.MaxBounces)
	if err != nil {
		return nil, fmt.Errorf("environment: %w", err)
	}
	rate := spec.PacketRate
	if rate <= 0 {
		rate = 50
	}
	return &Scenario{
		Name:       spec.Name,
		Env:        env,
		Grid:       grid,
		Imp:        spec.Imp,
		PacketRate: rate,
		Seed:       spec.Seed,
		room:       spec.Room,
		tx:         spec.TX,
		rxCenter:   spec.RXCenter,
		rxBrdside:  broadside,
		numAnts:    spec.NumAnts,
		params:     spec.Params,
		maxBounces: spec.MaxBounces,
	}, nil
}

// NewExtractor returns a CSI extractor whose RNG is derived from the
// scenario seed and the given offset, so distinct measurement sessions are
// independent yet reproducible.
func (s *Scenario) NewExtractor(seedOffset int64) (*csi.Extractor, error) {
	rng := rand.New(rand.NewSource(s.Seed*1000003 + seedOffset))
	x, err := csi.NewExtractor(s.Env, s.Grid, s.Imp, s.PacketRate, rng)
	if err != nil {
		return nil, fmt.Errorf("extractor: %w", err)
	}
	return x, nil
}

// NewSession re-builds the scenario with small per-session hardware and
// placement jitter (TX power ±, TX position ~1 cm) modelling the paper's
// repeated campaigns (day/night, two weeks apart).
func (s *Scenario) NewSession(sessionSeed int64) (*Scenario, error) {
	rng := rand.New(rand.NewSource(s.Seed*7919 + sessionSeed))
	params := s.params
	// Power drift (AP thermal/power-control) and a sub-wavelength antenna
	// settle. A full centimetre would re-randomize every multipath phase at
	// 12 cm wavelength, which fixed installations do not do.
	params.TxPower *= math.Pow(10, rng.NormFloat64()*0.3/10)
	tx := geom.Point{
		X: s.tx.X + rng.NormFloat64()*0.002,
		Y: s.tx.Y + rng.NormFloat64()*0.002,
	}
	out, err := Build(Spec{
		Name:       s.Name,
		Room:       s.room,
		TX:         tx,
		RXCenter:   s.rxCenter,
		NumAnts:    s.numAnts,
		Params:     params,
		MaxBounces: s.maxBounces,
		Imp:        s.Imp,
		PacketRate: s.PacketRate,
		Seed:       s.Seed*31 + sessionSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return out, nil
}

// TX returns the transmitter position.
func (s *Scenario) TX() geom.Point { return s.tx }

// RXCenter returns the receive-array centre.
func (s *Scenario) RXCenter() geom.Point { return s.rxCenter }

// LinkMidpoint returns the midpoint of the TX–RX segment.
func (s *Scenario) LinkMidpoint() geom.Point {
	return geom.Segment{A: s.tx, B: s.rxCenter}.Midpoint()
}

// LinkLength returns the TX–RX distance.
func (s *Scenario) LinkLength() float64 { return s.tx.Dist(s.rxCenter) }

// Grid3x3 returns the nine human presence locations the paper tests per
// link: a 3×3 grid spanning the link's length and lateral offsets, covering
// different distances and angles from the receiver.
func (s *Scenario) Grid3x3() []geom.Point {
	dir := s.rxCenter.Sub(s.tx)
	l := dir.Norm()
	if l == 0 {
		return nil
	}
	u := dir.Scale(1 / l)               // along the link
	v := geom.Point{X: -u.Y, Y: u.X}    // perpendicular
	fracs := []float64{0.25, 0.5, 0.75} // along-link stations
	lats := []float64{-1.0, 0.0, 1.0}   // lateral offsets (metres)
	out := make([]geom.Point, 0, 9)
	for _, f := range fracs {
		base := s.tx.Add(u.Scale(f * l))
		for _, lat := range lats {
			out = append(out, base.Add(v.Scale(lat)))
		}
	}
	return out
}

// RandomPresenceLocations samples n locations on and near the LOS path —
// the §III-A campaign of 500 static presence locations. Locations are drawn
// along the link (10%–90% of its length) with lateral offsets up to
// maxLateral metres on either side.
func (s *Scenario) RandomPresenceLocations(n int, maxLateral float64, rng *rand.Rand) []geom.Point {
	dir := s.rxCenter.Sub(s.tx)
	l := dir.Norm()
	u := dir.Scale(1 / l)
	v := geom.Point{X: -u.Y, Y: u.X}
	out := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		f := 0.1 + 0.8*rng.Float64()
		lat := (rng.Float64()*2 - 1) * maxLateral
		out = append(out, s.tx.Add(u.Scale(f*l)).Add(v.Scale(lat)))
	}
	return out
}

// CrossingTrajectory returns one body position per packet for a person
// crossing the link perpendicularly at its midpoint, from -span/2 to
// +span/2 metres (the Fig. 2b experiment).
func (s *Scenario) CrossingTrajectory(packets int, span float64) []geom.Point {
	mid := s.LinkMidpoint()
	dir := s.rxCenter.Sub(s.tx)
	l := dir.Norm()
	u := dir.Scale(1 / l)
	v := geom.Point{X: -u.Y, Y: u.X}
	out := make([]geom.Point, packets)
	for i := 0; i < packets; i++ {
		frac := float64(i)/float64(packets-1) - 0.5
		out[i] = mid.Add(v.Scale(frac * span))
	}
	return out
}

// AngularArc returns presence locations at the given radius from the
// receiver, spanning incident angles from minDeg to maxDeg relative to the
// array broadside (the Fig. 5c / Fig. 11 experiment).
func (s *Scenario) AngularArc(nPoints int, radius, minDeg, maxDeg float64) []geom.Point {
	out := make([]geom.Point, nPoints)
	for i := 0; i < nPoints; i++ {
		frac := 0.0
		if nPoints > 1 {
			frac = float64(i) / float64(nPoints-1)
		}
		deg := minDeg + (maxDeg-minDeg)*frac
		ang := s.rxBrdside + geom.DegToRad(deg)
		out[i] = s.rxCenter.Add(geom.Point{X: math.Cos(ang), Y: math.Sin(ang)}.Scale(radius))
	}
	return out
}
