package propagation

import (
	"fmt"
	"math"

	"mlink/internal/body"
	"mlink/internal/geom"
)

// This file implements the cached fast path through channel synthesis.
//
// The naive Response path recomputes math.Pow spreading and cmplx.Exp
// phasors for every (element × subcarrier × ray) on every packet, although
// the static rays — LOS and wall bounces — never move. PrepareGrid
// precomputes, per receive element and subcarrier, each static ray's complex
// contribution amp·e^{jφ} (via math.Sincos) plus the fully-summed empty-room
// response. ResponseInto then serves the no-bodies case as a table copy and
// the with-bodies case by re-evaluating only the body-dependent terms: knife-
// edge shadow gains against the cached per-ray phasors, and the bistatic
// echo rays. The naive Response/ResponseAt path is kept as the reference
// implementation; the cache-consistency tests bound the divergence of the
// two paths below 1e-9.

// rayConst holds the frequency-independent constants of one static ray,
// computed once at NewEnvironment.
type rayConst struct {
	// ampOverF reproduces spreadingAmplitude·Gain with the specular-bounce
	// sign folded in: amp(f) = ampOverF / f.
	ampOverF float64
	// phasePerF is the phase slope: φ(f) = phasePerF · f.
	phasePerF float64
	// segs are the ray's constituent segments (Points.Segments() allocates,
	// so shadow tests reuse this).
	segs []geom.Segment
}

// cachedRay is one static ray's per-subcarrier phasor table.
type cachedRay struct {
	// phasors[k] = amp(f_k)·e^{jφ(f_k)}, sign included.
	phasors []complex128
	segs    []geom.Segment
}

// elemCache holds one receive element's tables.
type elemCache struct {
	rays []cachedRay
	// empty[k] is the fully-summed static response Σ_rays phasors[k] — the
	// whole empty-room case is a copy of this row.
	empty []complex128
}

// gridCache is the per-frequency-grid synthesis cache built by PrepareGrid.
type gridCache struct {
	freqs     []float64
	lambdas   []float64
	maxLambda float64
	elems     []elemCache
}

// ResponseScratch holds the reusable working set of ResponseInto. A scratch
// must not be shared between goroutines; give each capture loop its own.
// The zero value is ready to use.
type ResponseScratch struct {
	pairs []body.ShadowGeometry
}

// buildRayConsts precomputes the frequency-independent ray constants for
// every receive element (called from NewEnvironment).
func (e *Environment) buildRayConsts() {
	pre := math.Sqrt(e.Params.TxPower * e.Params.TxGain * e.Params.RxGain)
	n := e.Room.PathLossExponent
	e.rayConsts = make([][]rayConst, len(e.staticRays))
	for i, rays := range e.staticRays {
		consts := make([]rayConst, len(rays))
		for j, r := range rays {
			d := r.Length()
			rc := rayConst{segs: r.Points.Segments()}
			if d > 0 {
				rc.ampOverF = pre * SpeedOfLight * r.Gain / math.Pow(4*math.Pi*d, n/2)
				if r.PhaseFlips%2 == 1 {
					rc.ampOverF = -rc.ampOverF
				}
				rc.phasePerF = -2 * math.Pi * d / SpeedOfLight
			}
			consts[j] = rc
		}
		e.rayConsts[i] = consts
	}
}

// PrepareGrid builds (or rebuilds) the synthesis cache for a frequency grid.
// It is idempotent for an unchanged grid and must not be called concurrently
// with Response evaluations. Callers that capture packets (csi.Extractor)
// invoke it once at construction.
func (e *Environment) PrepareGrid(freqs []float64) error {
	if len(freqs) == 0 {
		return fmt.Errorf("prepare grid with no frequencies: %w", ErrBadGeometry)
	}
	for _, f := range freqs {
		if f <= 0 {
			return fmt.Errorf("prepare grid with frequency %v: %w", f, ErrBadGeometry)
		}
	}
	if e.cache != nil && sameFreqs(e.cache.freqs, freqs) {
		return nil
	}
	nf := len(freqs)
	c := &gridCache{
		freqs:   append([]float64(nil), freqs...),
		lambdas: make([]float64, nf),
		elems:   make([]elemCache, len(e.staticRays)),
	}
	for k, f := range freqs {
		c.lambdas[k] = SpeedOfLight / f
		if c.lambdas[k] > c.maxLambda {
			c.maxLambda = c.lambdas[k]
		}
	}
	for i, consts := range e.rayConsts {
		ec := elemCache{
			rays:  make([]cachedRay, len(consts)),
			empty: make([]complex128, nf),
		}
		// One contiguous backing array for the element's phasor tables.
		backing := make([]complex128, len(consts)*nf)
		for j, rc := range consts {
			row := backing[j*nf : (j+1)*nf : (j+1)*nf]
			for k, f := range freqs {
				amp := rc.ampOverF / f
				sin, cos := math.Sincos(rc.phasePerF * f)
				row[k] = complex(amp*cos, amp*sin)
				ec.empty[k] += row[k]
			}
			ec.rays[j] = cachedRay{phasors: row, segs: rc.segs}
		}
		c.elems[i] = ec
	}
	e.cache = c
	return nil
}

// PreparedFor reports whether the cache matches the given frequency grid —
// the guard callers sharing an environment across grids use before
// ResponseInto, since a cache rebuilt for another grid would otherwise
// synthesize at the wrong frequencies.
func (e *Environment) PreparedFor(freqs []float64) bool {
	return e.cache != nil && sameFreqs(e.cache.freqs, freqs)
}

func sameFreqs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// appendShadowPairs classifies a body against each segment of a ray and
// appends the (body, segment) pairs whose knife-edge gain can differ from 1
// at some cached subcarrier. Geometry (closest point, leg lengths) is
// frequency-independent and resolved once here; only the Fresnel parameter
// is left for the per-subcarrier loop.
func (c *gridCache) appendShadowPairs(pairs []body.ShadowGeometry, b body.Body, segs []geom.Segment) []body.ShadowGeometry {
	for _, seg := range segs {
		if g, ok := b.SegmentGeometry(seg, c.maxLambda); ok {
			pairs = append(pairs, g)
		}
	}
	return pairs
}

// shadowGainAt evaluates the product of knife-edge gains of the active pairs
// at one wavelength (the per-subcarrier half of body.ShadowGain).
func shadowGainAt(pairs []body.ShadowGeometry, lambda float64) float64 {
	gain := 1.0
	for _, p := range pairs {
		gain *= p.GainAt(lambda)
	}
	return gain
}

// ResponseInto evaluates H over the prepared frequency grid for every
// receive element, writing into dst ([element][subcarrier], caller-
// allocated) without allocating. It requires a prior PrepareGrid and is the
// cached counterpart of Response: the no-bodies case is a table copy; with
// bodies present only the body-dependent shadow and echo terms are
// re-evaluated against the cached per-ray phasors. sc may be nil (a scratch
// is then allocated per call).
func (e *Environment) ResponseInto(dst [][]complex128, bodies []body.Body, sc *ResponseScratch) error {
	c := e.cache
	if c == nil {
		return fmt.Errorf("response into without PrepareGrid: %w", ErrBadGeometry)
	}
	if len(dst) != len(c.elems) {
		return fmt.Errorf("dst has %d rows for %d elements: %w", len(dst), len(c.elems), ErrBadGeometry)
	}
	nf := len(c.freqs)
	for i, row := range dst {
		if len(row) != nf {
			return fmt.Errorf("dst row %d has %d entries for %d subcarriers: %w", i, len(row), nf, ErrBadGeometry)
		}
	}
	if len(bodies) == 0 {
		for i := range dst {
			copy(dst[i], c.elems[i].empty)
		}
		return nil
	}
	if sc == nil {
		sc = &ResponseScratch{}
	}
	pre := math.Sqrt(e.Params.TxPower * e.Params.TxGain * e.Params.RxGain)
	n := e.Room.PathLossExponent
	for i := range dst {
		row := dst[i]
		for k := range row {
			row[k] = 0
		}
		// Static rays: cached phasors, shadowed by every body.
		for _, cr := range c.elems[i].rays {
			sc.pairs = sc.pairs[:0]
			for bi := range bodies {
				sc.pairs = c.appendShadowPairs(sc.pairs, bodies[bi], cr.segs)
			}
			if len(sc.pairs) == 0 {
				for k, ph := range cr.phasors {
					row[k] += ph
				}
				continue
			}
			for k, ph := range cr.phasors {
				row[k] += ph * complex(shadowGainAt(sc.pairs, c.lambdas[k]), 0)
			}
		}
		// Echo rays: one bistatic bounce per body, shadowed by the others.
		elem := e.RX.Elements[i]
		for bi := range bodies {
			b := bodies[bi]
			if b.RCS <= 0 {
				continue
			}
			d1 := e.TX.Dist(b.Position)
			d2 := b.Position.Dist(elem)
			if d1 <= 0 || d2 <= 0 {
				continue
			}
			// amp(f) = A/f, with the echo's single phase flip folded in.
			a := -pre * SpeedOfLight * b.EchoAmplitudeScale() / (4 * math.Pi * math.Pow(d1*d2, n/2))
			phasePerF := -2 * math.Pi * (d1 + d2) / SpeedOfLight
			segs := [2]geom.Segment{
				{A: e.TX, B: b.Position},
				{A: b.Position, B: elem},
			}
			sc.pairs = sc.pairs[:0]
			for bj := range bodies {
				if bj == bi {
					continue
				}
				sc.pairs = c.appendShadowPairs(sc.pairs, bodies[bj], segs[:])
			}
			for k, f := range c.freqs {
				amp := a / f * shadowGainAt(sc.pairs, c.lambdas[k])
				sin, cos := math.Sincos(phasePerF * f)
				row[k] += complex(amp*cos, amp*sin)
			}
		}
	}
	return nil
}
