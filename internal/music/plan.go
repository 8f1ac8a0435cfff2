package music

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mlink/internal/binio"
	"mlink/internal/csi"
	"mlink/internal/dsp"
	"mlink/internal/geom"
	"mlink/internal/linalg"
)

// Plan is the precomputed, immutable side of angular scoring: the scan grid
// and the full steering-vector table a(θ) for every grid angle, built once
// per array geometry. The per-angle trigonometry of a textbook spectrum
// (nAngles × nAnt sin/cos pairs per spectrum) disappears into the table,
// and the Into methods below write spectra into caller-owned buffers — a
// scoring worker holding a Plan computes angular spectra with zero
// allocations.
//
// A Plan is read-only after construction and safe to share between
// goroutines. NewPlan hands out one process-wide Plan per geometry, so a
// link's calibration, its scoring kernel and every other link with the same
// array all hold the same table.
type Plan struct {
	nAnt      int
	anglesDeg []float64
	// steer is the row-major steering table: row i (nAnt entries) is
	// a(anglesDeg[i]): a_m(θ) = e^{+j·2π·offset_m·sinθ/λ}. The sign
	// convention matches the propagation model's e^{-j2πfd/c} ray phases
	// (an element closer to the source accumulates less negative phase).
	steer []complex128
}

// planCache maps a geometry key (planKey) → *Plan, the same lock-free-on-read
// pattern as dsp.Plan's transform cache. Geometries are few — one per
// distinct receive array and scan grid in the process — and a Plan is
// immutable once built, so entries live for the whole process.
var planCache sync.Map

// NewPlan returns the process-wide shared steering plan for the estimator's
// array geometry and scan grid, building it on first use. The plan is keyed
// on the exact bits of every offset, the wavelength and the resolved scan
// step and bound: estimators that resolve to the same grid (StepDeg 0 and
// 1, MaxDeg 0 and 90) share one plan, while offsets that differ in any bit
// — even only in the sign of a zero — get their own, so every caller sees
// exactly the table a fresh build would give it. Plans are never evicted:
// the process keeps one per distinct geometry, just as dsp.Plan keeps one
// transform per size. Two goroutines racing on a new geometry may both
// build it; the first one stored wins and both return it.
func (e *Estimator) NewPlan() (*Plan, error) {
	if len(e.Offsets) < 2 {
		return nil, fmt.Errorf("need ≥2 elements, got %d: %w", len(e.Offsets), ErrBadInput)
	}
	if e.Wavelength <= 0 {
		return nil, fmt.Errorf("wavelength %v: %w", e.Wavelength, ErrBadInput)
	}
	step, maxDeg, n := e.scanGrid()
	key := planKey(e.Offsets, e.Wavelength, step, maxDeg)
	if v, ok := planCache.Load(key); ok {
		return v.(*Plan), nil
	}
	v, _ := planCache.LoadOrStore(key, e.buildPlan(step, maxDeg, n))
	return v.(*Plan), nil
}

// planKey encodes a geometry as the bit patterns of its offsets, wavelength,
// scan step and scan bound.
func planKey(offsets []float64, wavelength, step, maxDeg float64) string {
	b := make([]byte, 0, 8*(len(offsets)+3))
	for _, off := range offsets {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(off))
	}
	for _, v := range [...]float64{wavelength, step, maxDeg} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// buildPlan computes the steering table for a resolved scan grid of n
// angles, angle(i) = -maxDeg + i·step.
func (e *Estimator) buildPlan(step, maxDeg float64, n int) *Plan {
	p := &Plan{
		nAnt:      len(e.Offsets),
		anglesDeg: make([]float64, n),
		steer:     make([]complex128, n*len(e.Offsets)),
	}
	for i := 0; i < n; i++ {
		a := -maxDeg + float64(i)*step
		p.anglesDeg[i] = a
		s := math.Sin(geom.DegToRad(a))
		row := p.steer[i*p.nAnt : (i+1)*p.nAnt]
		for m, off := range e.Offsets {
			phi := 2 * math.Pi * off * s / e.Wavelength
			row[m] = complex(math.Cos(phi), math.Sin(phi))
		}
	}
	return p
}

// reuseSpectrum sizes dst for the plan's grid and copies the angle axis.
func (p *Plan) reuseSpectrum(dst *Spectrum) {
	dst.AnglesDeg = append(dst.AnglesDeg[:0], p.anglesDeg...)
	if cap(dst.Power) < len(p.anglesDeg) {
		dst.Power = make([]float64, len(p.anglesDeg))
	}
	dst.Power = dst.Power[:len(p.anglesDeg)]
}

// triangle hoists a covariance's angle-independent trace and its strict
// upper triangle (row-major, i<j) into buf, so the angle loops index a small
// dense slice instead of recomputing matrix offsets per angle. Arrays up to
// 6 elements fit buf; larger ones (not a hot path here) pay one allocation.
func (p *Plan) triangle(r *linalg.Matrix, buf *[16]complex128) (tr float64, up []complex128, err error) {
	nAnt := p.nAnt
	if r.Rows() != nAnt || r.Cols() != nAnt {
		return 0, nil, fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), nAnt, ErrBadInput)
	}
	for i := 0; i < nAnt; i++ {
		tr += real(r.At(i, i))
	}
	up = buf[:0]
	if tri := nAnt * (nAnt - 1) / 2; tri > len(buf) {
		up = make([]complex128, 0, tri)
	}
	for i := 0; i < nAnt-1; i++ {
		for j := i + 1; j < nAnt; j++ {
			up = append(up, r.At(i, j))
		}
	}
	return tr, up, nil
}

// BartlettInto computes the conventional angular power spectrum
// B(θ) = aᴴ(θ)·R·a(θ) over the cached steering table into dst, allocating
// nothing once dst has warmed. Steering rows have unit-modulus entries, so
// aᴴRa = tr(R) + 2·Re Σ_{i<j} conj(a_i)·R_ij·a_j: the diagonal contributes
// the angle-independent trace and each angle costs only the strict upper
// triangle — no per-angle MulVec/Dot temporaries.
func (p *Plan) BartlettInto(dst *Spectrum, r *linalg.Matrix) error {
	if dst == nil {
		return fmt.Errorf("nil spectrum: %w", ErrBadInput)
	}
	var buf [16]complex128
	tr, up, err := p.triangle(r, &buf)
	if err != nil {
		return err
	}
	p.reuseSpectrum(dst)
	nAnt := p.nAnt
	for ai := range dst.Power {
		row := p.steer[ai*nAnt : (ai+1)*nAnt]
		var cross complex128
		t := 0
		for i := 0; i < nAnt-1; i++ {
			ci := conj(row[i])
			for j := i + 1; j < nAnt; j++ {
				cross += ci * up[t] * row[j]
				t++
			}
		}
		dst.Power[ai] = tr + 2*real(cross)
	}
	return nil
}

// BartlettDistanceDB is the §IV-C decision statistic: the path-weighted
// Euclidean distance between the dB Bartlett spectra of a monitoring and a
// calibration covariance,
//
//	score = √( Σθ w(θ)·(Bm,dB(θ) - Bc,dB(θ))² / Σθ w(θ) ),
//
// with weights aligned to the scan grid. It walks the steering table once
// and only at angles whose weight is nonzero (the Eq. 17 weights vanish
// outside (θmin, θmax)), where it evaluates both powers, floors each at
// 1e-30 and adds 10·log₁₀(m/c) through the table-backed dsp.Log10Fast
// (≤2e-9 abs error). No spectrum is written and nothing is allocated.
//
// The result is bit-identical to two BartlettInto spectra fed through the
// same distance: each power sums the same (i, j) terms in the same order,
// and only the real half of the last complex product is computed —
// Re(x·a) = Re x·Re a − Im x·Im a is exactly the real part Go's complex
// multiply produces. A zero weight adds +0 to the weight sum, so skipping
// it is exact.
func (p *Plan) BartlettDistanceDB(mon, cal *linalg.Matrix, weights []float64) (float64, error) {
	if len(weights) != len(p.anglesDeg) {
		return 0, fmt.Errorf("%d weights for %d scan angles: %w", len(weights), len(p.anglesDeg), ErrBadInput)
	}
	var monBuf, calBuf [16]complex128
	trM, upM, err := p.triangle(mon, &monBuf)
	if err != nil {
		return 0, fmt.Errorf("monitor: %w", err)
	}
	trC, upC, err := p.triangle(cal, &calBuf)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	upC = upC[:len(upM)] // one bounds check covers both triangles
	nAnt := p.nAnt
	var num, den float64
	// The power ratios are logged in batches: a call inside the angle loop
	// would spill its live registers every angle (Go's ABI saves none), so
	// each batch first fills ratio/wt, then takes the logs, and num still
	// accumulates in angle order.
	var ratio, wt [64]float64
	for ai := 0; ai < len(weights); {
		n := 0
		for ; ai < len(weights) && n < len(ratio); ai++ {
			w := weights[ai]
			if w == 0 {
				continue
			}
			den += w
			row := p.steer[ai*nAnt : (ai+1)*nAnt]
			var crossM, crossC float64
			t := 0
			for i := 0; i < nAnt-1; i++ {
				ci := conj(row[i])
				for j := i + 1; j < nAnt; j++ {
					a := row[j]
					xm := ci * upM[t]
					xc := ci * upC[t]
					crossM += real(xm)*real(a) - imag(xm)*imag(a)
					crossC += real(xc)*real(a) - imag(xc)*imag(a)
					t++
				}
			}
			m := trM + 2*crossM
			if m < 1e-30 {
				m = 1e-30
			}
			c := trC + 2*crossC
			if c < 1e-30 {
				c = 1e-30
			}
			ratio[n], wt[n] = m/c, w
			n++
		}
		for k := 0; k < n; k++ {
			d := 10 * dsp.Log10Fast(ratio[k])
			num += wt[k] * d * d
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("all-zero path weights: %w", ErrBadInput)
	}
	return math.Sqrt(num / den), nil
}

// PseudospectrumInto computes the MUSIC pseudospectrum over the cached
// steering table into dst, running the eigensolver through the caller's
// workspace (nil allocates a transient one). nSignals ≤ 0 auto-estimates
// from the eigenvalue profile, and the count is clamped to keep a non-empty
// noise subspace.
func (p *Plan) PseudospectrumInto(dst *Spectrum, r *linalg.Matrix, nSignals int, ws *linalg.EigWorkspace) error {
	if dst == nil {
		return fmt.Errorf("nil spectrum: %w", ErrBadInput)
	}
	if r.Rows() != p.nAnt || r.Cols() != p.nAnt {
		return fmt.Errorf("covariance %dx%d for %d elements: %w", r.Rows(), r.Cols(), p.nAnt, ErrBadInput)
	}
	if ws == nil {
		ws = &linalg.EigWorkspace{}
	}
	eig, err := ws.EigHermitian(r)
	if err != nil {
		return fmt.Errorf("pseudospectrum: %w", err)
	}
	if nSignals <= 0 {
		nSignals = EstimateSignals(eig.Values, 0.08)
	}
	if nSignals > p.nAnt-1 {
		nSignals = p.nAnt - 1
	}
	p.reuseSpectrum(dst)
	nAnt := p.nAnt
	vecs := eig.Vectors
	for ai := range dst.Power {
		row := p.steer[ai*nAnt : (ai+1)*nAnt]
		// denom = ‖Enᴴ a‖², read straight off the noise-subspace columns.
		var denom float64
		for j := nSignals; j < nAnt; j++ {
			var dot complex128
			for i := 0; i < nAnt; i++ {
				dot += conj(vecs.At(i, j)) * row[i]
			}
			denom += real(dot)*real(dot) + imag(dot)*imag(dot)
		}
		if denom > 1e-18 {
			dst.Power[ai] = 1 / denom
		} else {
			dst.Power[ai] = math.Inf(1)
		}
	}
	return nil
}

// Partials are per-subcarrier snapshot outer-product sums over a fixed frame
// set: sums_k = Σ_f x_{f,k}·x_{f,k}ᴴ, stored as nAnt(nAnt+1)/2 upper-triangle
// planes of nSub entries. The weighted spatial covariance of those same
// frames then collapses to a per-subcarrier combine,
//
//	R = (1/(F·nnz(w))) · Σ_k w_k² · sums_k,
//
// matching Covariance's snapshot count (F frames × nonzero-weighted
// subcarriers). The §IV-C scoring hot path exploits this twice: a profile's
// frames are immutable, so their partials are accumulated once at
// calibration and re-combined with every window's fresh weights at
// O(nSub·nAnt²) instead of O(F·nSub·nAnt²); and the monitoring window's own
// covariance accumulates through a scratch Partials, touching each snapshot
// without per-snapshot weight scaling.
//
// The zero value is ready to use; Accumulate sizes (and reuses) the backing
// storage. A Partials is read-only after accumulation and safe to share
// between goroutines as long as no further Accumulate runs.
type Partials struct {
	nAnt, nSub, frames int
	sums               []complex128
}

// Reserve pre-sizes the backing storage for an nAnt×nSub frame set without
// accumulating anything, so a scoring worker can pay the allocation before
// entering its steady state (e.g. when a link first lands on a shard).
// Contents are left undefined; Accumulate still fully rewrites them.
func (p *Partials) Reserve(nAnt, nSub int) {
	if nAnt <= 0 || nSub <= 0 {
		return
	}
	if tri := nAnt * (nAnt + 1) / 2; cap(p.sums) < tri*nSub {
		p.sums = make([]complex128, tri*nSub)
	}
}

// NewPartials accumulates the partials of a frame set.
func NewPartials(frames []*csi.Frame) (*Partials, error) {
	p := &Partials{}
	if err := p.Accumulate(frames); err != nil {
		return nil, err
	}
	return p, nil
}

// Accumulate rebuilds the partials from a frame set, replacing any previous
// contents and reusing the backing storage.
func (p *Partials) Accumulate(frames []*csi.Frame) error {
	if len(frames) == 0 {
		return fmt.Errorf("no frames: %w", ErrBadInput)
	}
	nAnt := frames[0].NumAntennas()
	nSub := frames[0].NumSubcarriers()
	if nAnt == 0 || nSub == 0 {
		return fmt.Errorf("empty frame: %w", ErrBadInput)
	}
	tri := nAnt * (nAnt + 1) / 2
	if cap(p.sums) < tri*nSub {
		p.sums = make([]complex128, tri*nSub)
	}
	p.sums = p.sums[:tri*nSub]
	for i := range p.sums {
		p.sums[i] = 0
	}
	for fi, f := range frames {
		if f.NumAntennas() != nAnt || f.NumSubcarriers() != nSub {
			return fmt.Errorf("frame %d shape %dx%d differs from %dx%d: %w",
				fi, f.NumAntennas(), f.NumSubcarriers(), nAnt, nSub, ErrBadInput)
		}
		t := 0
		for i := 0; i < nAnt; i++ {
			xi := f.CSI[i]
			// Diagonal plane (i,i): |x|² sums, exactly real.
			plane := p.sums[t*nSub : (t+1)*nSub]
			for k, v := range xi {
				re, im := real(v), imag(v)
				plane[k] += complex(re*re+im*im, 0)
			}
			t++
			for j := i + 1; j < nAnt; j++ {
				xj := f.CSI[j]
				plane := p.sums[t*nSub : (t+1)*nSub]
				for k, v := range xi {
					plane[k] += v * conj(xj[k])
				}
				t++
			}
		}
	}
	p.nAnt, p.nSub, p.frames = nAnt, nSub, len(frames)
	return nil
}

// CovarianceInto combines the partials with per-subcarrier weights into the
// caller-owned covariance matrix (Covariance semantics: nil weights are
// uniform, a zero weight drops the subcarrier's snapshots from the count,
// negative weights are rejected). Only the upper triangle is computed; the
// lower is mirrored by conjugation.
func (p *Partials) CovarianceInto(dst *linalg.Matrix, weights []float64) error {
	if dst == nil {
		return fmt.Errorf("nil covariance: %w", ErrBadInput)
	}
	if p.frames == 0 {
		return fmt.Errorf("no frames: %w", ErrBadInput)
	}
	if weights != nil && len(weights) != p.nSub {
		return fmt.Errorf("%d weights for %d subcarriers: %w", len(weights), p.nSub, ErrBadInput)
	}
	nnz := p.nSub
	if weights != nil {
		nnz = 0
		for k, w := range weights {
			if w < 0 {
				return fmt.Errorf("negative weight %v at subcarrier %d: %w", w, k, ErrBadInput)
			}
			if w != 0 {
				nnz++
			}
		}
	}
	count := p.frames * nnz
	if count == 0 {
		return fmt.Errorf("all snapshots zero-weighted: %w", ErrBadInput)
	}
	dst.Reuse(p.nAnt, p.nAnt)
	inv := complex(1/float64(count), 0)
	t := 0
	for i := 0; i < p.nAnt; i++ {
		for j := i; j < p.nAnt; j++ {
			plane := p.sums[t*p.nSub : (t+1)*p.nSub]
			var acc complex128
			if weights == nil {
				for _, v := range plane {
					acc += v
				}
			} else {
				for k, v := range plane {
					if w := weights[k]; w != 0 {
						acc += complex(w*w, 0) * v
					}
				}
			}
			acc *= inv
			dst.Set(i, j, acc)
			if i != j {
				dst.Set(j, i, conj(acc))
			}
			t++
		}
	}
	return nil
}

// Shape reports the antenna and subcarrier counts of the accumulated frames.
func (p *Partials) Shape() (nAnt, nSub int) { return p.nAnt, p.nSub }

// AppendBinary appends the partials' wire form to dst: nAnt and nSub (u16),
// the frame count (u32), then the nAnt(nAnt+1)/2·nSub upper-triangle sums as
// a u32 count followed by (real, imag) float64 pairs. Bit patterns
// round-trip exactly, so restored partials combine to the same covariance.
func (p *Partials) AppendBinary(dst []byte) []byte {
	dst = binio.AppendU16(dst, uint16(p.nAnt))
	dst = binio.AppendU16(dst, uint16(p.nSub))
	dst = binio.AppendU32(dst, uint32(p.frames))
	dst = binio.AppendU32(dst, uint32(len(p.sums)))
	for _, v := range p.sums {
		dst = binio.AppendF64(dst, real(v))
		dst = binio.AppendF64(dst, imag(v))
	}
	return dst
}

// ReadPartials decodes an AppendBinary blob from the reader's current
// position. Hostile input fails with ErrBadInput or binio.ErrShort: a zero
// dimension or frame count, a sums count that does not match the
// dimensions, and a count beyond the remaining bytes are all rejected before
// anything is allocated.
func ReadPartials(r *binio.Reader) (*Partials, error) {
	nAnt, nSub := int(r.U16()), int(r.U16())
	frames := uint64(r.U32())
	n := uint64(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nAnt == 0 || nSub == 0 || frames == 0 {
		return nil, fmt.Errorf("partials %dx%d over %d frames: %w", nAnt, nSub, frames, ErrBadInput)
	}
	if want := uint64(nAnt) * uint64(nAnt+1) / 2 * uint64(nSub); n != want {
		return nil, fmt.Errorf("%d sums for %dx%d partials, want %d: %w", n, nAnt, nSub, want, ErrBadInput)
	}
	if need := 16 * n; uint64(len(r.Rest())) < need {
		return nil, fmt.Errorf("%d sums need %d bytes, have %d: %w", n, need, len(r.Rest()), ErrBadInput)
	}
	p := &Partials{nAnt: nAnt, nSub: nSub, frames: int(frames), sums: make([]complex128, n)}
	for i := range p.sums {
		re := r.F64()
		im := r.F64()
		p.sums[i] = complex(re, im)
	}
	return p, r.Err()
}

// CovarianceInto is Covariance writing into a caller-owned matrix, using
// scratch as the per-subcarrier accumulation buffer (nil allocates a
// transient one). It is the allocation-free monitor-window covariance of the
// scoring hot path: accumulate the window's partials, then weight-combine.
func CovarianceInto(dst *linalg.Matrix, frames []*csi.Frame, weights []float64, scratch *Partials) error {
	if scratch == nil {
		scratch = &Partials{}
	}
	if err := scratch.Accumulate(frames); err != nil {
		return err
	}
	return scratch.CovarianceInto(dst, weights)
}
