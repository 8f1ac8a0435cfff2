package scenario

import (
	"fmt"
	"math"

	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/propagation"
)

// DriftKind selects an environment-drift mechanism.
type DriftKind int

// The first-class drift scenarios. They promote the "slow gain walk"
// behaviour some simulator seeds exhibited by accident (see CHANGES.md,
// PR 1) into deterministic, parameterized presets a test or experiment can
// ask for by name.
const (
	// DriftNone applies no extra drift: the control arm, exposing only the
	// extractor's own stochastic impairments (AGC jitter and the OU gain
	// process). Useful for separating a preset's effect from the
	// receiver's natural fickleness.
	DriftNone DriftKind = iota + 1
	// DriftGainWalk ramps the receive-chain gain linearly in dB over time —
	// the thermal / AGC-state walk that defeats amplitude profiles frozen
	// at calibration.
	DriftGainWalk
	// DriftCFOWalk models temperature-driven oscillator drift: a slowly
	// accumulating common phase plus a sampling-time-offset ramp (the
	// shared crystal skews both). The detectors score only statistics a
	// phase common to all antennas cancels in, so they are largely immune —
	// the preset exists to prove that, not to break them.
	DriftCFOWalk
	// DriftFurnitureMove is a step change: at StepAtPacket an obstacle
	// appears near the link, permanently altering the multipath profile —
	// the case online EWMA adaptation cannot absorb and quarantine +
	// recalibration must catch.
	DriftFurnitureMove
	// DriftAmbient is a correlated receiver-chain event: a slow thermal
	// gain walk plus an AGC re-lock step of StepDB at StepAtPacket. Applied
	// with the same preset to every link of a site it models the
	// environmental change that shifts MANY links at once and in the same
	// direction — the disambiguation test bed for the fleet coordination
	// layer (a person can only cut the Fresnel zones of a few links; a
	// temperature or gain event moves all of them together).
	DriftAmbient
)

// String names the drift kind.
func (k DriftKind) String() string {
	switch k {
	case DriftNone:
		return "no-drift"
	case DriftGainWalk:
		return "gain-walk"
	case DriftCFOWalk:
		return "cfo-walk"
	case DriftFurnitureMove:
		return "furniture-move"
	case DriftAmbient:
		return "ambient"
	default:
		return fmt.Sprintf("driftkind(%d)", int(k))
	}
}

// DriftPreset parameterizes one drift scenario.
type DriftPreset struct {
	// Kind selects the mechanism.
	Kind DriftKind
	// GainDBPerMinute is the gain-walk slope (DriftGainWalk).
	GainDBPerMinute float64
	// STODriftNsPerMinute ramps the residual sampling-time offset
	// (DriftCFOWalk), in nanoseconds per minute.
	STODriftNsPerMinute float64
	// PhaseRadPerPacket is the per-packet common oscillator phase creep
	// (DriftCFOWalk).
	PhaseRadPerPacket float64
	// StepAtPacket is when the furniture moves (DriftFurnitureMove: a metal
	// panel appears one metre to the side of the link midpoint) or the AGC
	// re-locks (DriftAmbient).
	StepAtPacket int
	// StepDB is the gain step applied from StepAtPacket on (DriftAmbient).
	StepDB float64
}

// NoDrift returns the control preset (capture impairments only).
func NoDrift() DriftPreset {
	return DriftPreset{Kind: DriftNone}
}

// GainWalk returns a linear gain-walk preset. Simulated campaigns compress
// hours into seconds, so slopes are steeper than physical thermal drift;
// 4 dB/min walks a 150-packet calibration profile well past a 1.3× margin
// within a 10× monitoring run.
func GainWalk(dbPerMinute float64) DriftPreset {
	return DriftPreset{Kind: DriftGainWalk, GainDBPerMinute: dbPerMinute}
}

// CFOWalk returns a temperature-like oscillator-drift preset.
func CFOWalk(stoNsPerMinute, phaseRadPerPacket float64) DriftPreset {
	return DriftPreset{
		Kind:                DriftCFOWalk,
		STODriftNsPerMinute: stoNsPerMinute,
		PhaseRadPerPacket:   phaseRadPerPacket,
	}
}

// FurnitureMove returns a step-change preset: the default metal panel
// appears at the given packet.
func FurnitureMove(stepAtPacket int) DriftPreset {
	return DriftPreset{Kind: DriftFurnitureMove, StepAtPacket: stepAtPacket}
}

// AmbientDrift returns the correlated site-wide preset: a slow gain walk of
// dbPerMinute plus an AGC re-lock step of stepDB at stepAtPacket. Apply the
// SAME preset to every link of a site — correlation across links is the
// point; the streams advance in lockstep, so every link sees the identical
// gain trajectory against its own noise process.
func AmbientDrift(dbPerMinute, stepDB float64, stepAtPacket int) DriftPreset {
	return DriftPreset{
		Kind:            DriftAmbient,
		GainDBPerMinute: dbPerMinute,
		StepDB:          stepDB,
		StepAtPacket:    stepAtPacket,
	}
}

// WithObstacle rebuilds the scenario with one extra interior obstacle — the
// post-step world of a furniture-move drift. The original scenario's room is
// cloned, never mutated.
func (s *Scenario) WithObstacle(seg geom.Segment, mat propagation.Material) (*Scenario, error) {
	room := s.room.Clone()
	room.AddObstacle(seg, mat)
	out, err := Build(Spec{
		Name:       s.Name + "+obstacle",
		Room:       room,
		TX:         s.tx,
		RXCenter:   s.rxCenter,
		NumAnts:    s.numAnts,
		Params:     s.params,
		MaxBounces: s.maxBounces,
		Imp:        s.Imp,
		PacketRate: s.PacketRate,
		Seed:       s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("with obstacle: %w", err)
	}
	return out, nil
}

// defaultFurniture places a 1.2 m panel parallel to the link, one metre to
// its side at the midpoint — close enough to reroute reflected energy
// through the monitored zone, far enough not to block the LOS.
func (s *Scenario) defaultFurniture() geom.Segment {
	dir := s.rxCenter.Sub(s.tx)
	l := dir.Norm()
	u := dir.Scale(1 / l)
	v := geom.Point{X: -u.Y, Y: u.X}
	mid := s.LinkMidpoint().Add(v.Scale(1.0))
	return geom.Segment{A: mid.Sub(u.Scale(0.6)), B: mid.Add(u.Scale(0.6))}
}

// DriftStream is a frame source that captures from the scenario and applies
// the preset's drift on top — a drop-in engine source (it implements the
// engine's Source and FrameRecycler contracts structurally) whose occupancy
// can be switched between calibration and monitoring via SetBodies.
//
// Frames are pooled and written via the allocation-free CaptureInto path;
// like every engine source it must be driven by one goroutine at a time.
type DriftStream struct {
	preset DriftPreset
	rate   float64
	freqs  []float64
	center float64

	pre, post *csi.Extractor
	pool      *csi.FramePool
	bodies    []body.Body
	n         int
}

// NewDriftStream builds the drifting frame source. seedOffset derives the
// capture RNG exactly as Scenario.NewExtractor does, so a drift stream and
// a plain extractor with the same offset see identical impairment draws.
func (s *Scenario) NewDriftStream(preset DriftPreset, seedOffset int64) (*DriftStream, error) {
	switch preset.Kind {
	case DriftNone, DriftGainWalk, DriftCFOWalk, DriftFurnitureMove, DriftAmbient:
	default:
		return nil, fmt.Errorf("unknown drift kind %d: %w", int(preset.Kind), ErrBadScenario)
	}
	pre, err := s.NewExtractor(seedOffset)
	if err != nil {
		return nil, err
	}
	d := &DriftStream{
		preset: preset,
		rate:   s.PacketRate,
		freqs:  s.Grid.Frequencies(),
		center: s.Grid.Center,
		pre:    pre,
		pool:   csi.NewFramePool(len(s.Env.RX.Elements), s.Grid.Len()),
	}
	if preset.Kind == DriftFurnitureMove {
		if preset.StepAtPacket < 0 {
			return nil, fmt.Errorf("furniture step at packet %d: %w", preset.StepAtPacket, ErrBadScenario)
		}
		moved, err := s.WithObstacle(s.defaultFurniture(), propagation.Metal)
		if err != nil {
			return nil, err
		}
		// A distinct RNG stream after the step is realistic (nothing about
		// the noise process survives a furniture move).
		d.post, err = moved.NewExtractor(seedOffset + 7777)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// SetBodies switches the people present for subsequent captures (nil =
// empty room). Call between engine phases, never concurrently with Next.
func (d *DriftStream) SetBodies(bodies []body.Body) { d.bodies = bodies }

// AppliedGainDB reports the gain offset the NEXT frame will receive — how
// far the baseline has walked (and, for the ambient preset, stepped) so far.
func (d *DriftStream) AppliedGainDB() float64 {
	switch d.preset.Kind {
	case DriftGainWalk:
		return d.preset.GainDBPerMinute * float64(d.n) / (60 * d.rate)
	case DriftAmbient:
		g := d.preset.GainDBPerMinute * float64(d.n) / (60 * d.rate)
		if d.n >= d.preset.StepAtPacket {
			g += d.preset.StepDB
		}
		return g
	default:
		return 0
	}
}

// Stepped reports whether the furniture move has happened.
func (d *DriftStream) Stepped() bool {
	return d.post != nil && d.n >= d.preset.StepAtPacket
}

// Next implements the engine Source contract.
func (d *DriftStream) Next() (*csi.Frame, error) {
	x := d.pre
	if d.Stepped() {
		x = d.post
	}
	f := d.pool.Get()
	if err := x.CaptureInto(f, d.bodies); err != nil {
		d.pool.Put(f)
		return nil, err
	}
	switch d.preset.Kind {
	case DriftGainWalk, DriftAmbient:
		gdB := d.AppliedGainDB()
		g := math.Pow(10, gdB/20)
		for ant := range f.CSI {
			row := f.CSI[ant]
			for k := range row {
				row[k] *= complex(g, 0)
			}
			f.RSSI[ant] += gdB
		}
	case DriftCFOWalk:
		minutes := float64(d.n) / (60 * d.rate)
		sto := d.preset.STODriftNsPerMinute * 1e-9 * minutes
		phi := d.preset.PhaseRadPerPacket * float64(d.n)
		for ant := range f.CSI {
			row := f.CSI[ant]
			for k := range row {
				sin, cos := math.Sincos(phi - 2*math.Pi*(d.freqs[k]-d.center)*sto)
				row[k] *= complex(cos, sin)
			}
		}
	}
	d.n++
	return f, nil
}

// Recycle implements the engine FrameRecycler contract.
func (d *DriftStream) Recycle(f *csi.Frame) { d.pool.Put(f) }
