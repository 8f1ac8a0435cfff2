package core

import (
	"fmt"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/dsp"
	"mlink/internal/linalg"
	"mlink/internal/music"
)

// Scratch holds reusable buffers for the detector's per-window hot path, so
// a long-lived scoring worker (e.g. one goroutine of the engine's pool) can
// score windows without re-allocating the multipath-factor, RSS and mean
// vectors on every call. A Scratch also caches the grid-derived constants of
// Eq. 10 (resampling targets, subcarrier frequencies, Σf⁻²), which are
// identical for every packet on a link.
//
// A Scratch must not be shared between goroutines; give each worker its own.
// The zero value is ready to use.
type Scratch struct {
	// Cached per-grid constants (rebuilt when the grid changes).
	grid    *channel.Grid
	xs      []float64
	targets []float64
	freqs   []float64
	invSq   float64
	// Resampling knots: target i interpolates between row[knotLo[i]] and
	// row[knotHi[i]] at fraction knotFrac[i] — precomputed once per grid so
	// the per-packet loop does no searching or validation.
	knotLo, knotHi []int
	knotFrac       []float64
	// plNum[k] = (1/f_k²)/Σf⁻², the Eq. 10 path-loss numerator.
	plNum []float64
	// xform is the planned power-delay-profile transform (the prime-factor
	// plan for the 30-subcarrier grid).
	xform *dsp.Transform

	// Reusable multipath-factor buffers.
	uniform []complex128
	taps    []complex128
	powers  []float64

	// Reusable detector buffers. The mu and weight rows are headers over
	// contiguous slabs (muSlab/wSlab): a window's 25×30 multipath factors
	// occupy one ~6 KB block, so the fill and weight-derivation passes sweep
	// it linearly instead of hopping between individually grown rows.
	acc    []float64   // per-subcarrier accumulator (mean amplitude)
	mus    [][]float64 // window multipath factors, [packet][subcarrier]
	muSlab []float64   // contiguous backing for mus
	pant   [][]float64 // per-antenna weight vectors
	wrows  [][]float64 // per-antenna weight rows (Eq. 15 / Eq. 12)
	wSlab  []float64   // contiguous backing for wrows
	med    []float64   // median-selection work row
	sw     SubcarrierWeights

	// Angular-scheme buffers (SchemeSubcarrierPath): the averaged
	// subcarrier-weight row, the monitor window's covariance partials and
	// the two combined covariance matrices. The Bartlett spectra are never
	// materialized: music.Plan.BartlettDistanceDB scores straight from the
	// covariances. All are fully rewritten every window, so a link
	// migrating between shards (work stealing) carries no angular state —
	// the new holder's scratch reproduces bit-identical scores.
	wavg           []float64
	winPartials    music.Partials
	monCov, calCov linalg.Matrix

	// The window mean RSS rows Score leaves when its scheme computes them
	// (rss over rssSlab, [antenna][subcarrier]), plus a one-shot record of
	// what they belong to: the kernel that scored (nil when there are no
	// valid rows) and the window's frames. Kernel.MeasureWindowInto copies
	// the rows when the record matches its window, so a refresh does not
	// recompute what Score just computed.
	rss     [][]float64
	rssSlab []float64
	rssK    *Kernel
	rssFrom []*csi.Frame
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// bindGrid (re)computes the grid-derived constants of MultipathFactors.
func (sc *Scratch) bindGrid(grid *channel.Grid) {
	if sc.grid == grid {
		return
	}
	n := grid.Len()
	sc.xs = growFloats(&sc.xs, n)
	for i, idx := range grid.Indices {
		sc.xs[i] = float64(idx)
	}
	sc.targets = growFloats(&sc.targets, n)
	span := sc.xs[n-1] - sc.xs[0]
	for i := range sc.targets {
		sc.targets[i] = sc.xs[0] + span*float64(i)/float64(n-1)
	}
	sc.freqs = append(sc.freqs[:0], grid.Frequencies()...)
	sc.invSq = 0
	for _, f := range sc.freqs {
		sc.invSq += 1 / (f * f)
	}
	// Interpolation knots: targets are ascending across the xs span, so one
	// forward sweep replaces the per-packet binary searches.
	sc.knotLo = growInts(&sc.knotLo, n)
	sc.knotHi = growInts(&sc.knotHi, n)
	sc.knotFrac = growFloats(&sc.knotFrac, n)
	lo := 0
	for i, t := range sc.targets {
		switch {
		case t <= sc.xs[0]:
			sc.knotLo[i], sc.knotHi[i], sc.knotFrac[i] = 0, 0, 0
		case t >= sc.xs[n-1]:
			sc.knotLo[i], sc.knotHi[i], sc.knotFrac[i] = n-1, n-1, 0
		default:
			for sc.xs[lo+1] <= t {
				lo++
			}
			sc.knotLo[i] = lo
			sc.knotHi[i] = lo + 1
			sc.knotFrac[i] = (t - sc.xs[lo]) / (sc.xs[lo+1] - sc.xs[lo])
		}
	}
	sc.plNum = growFloats(&sc.plNum, n)
	if sc.invSq > 0 {
		for k, f := range sc.freqs {
			sc.plNum[k] = (1 / (f * f)) / sc.invSq
		}
	}
	if sc.xform == nil || sc.xform.Len() != n {
		// Shared process-wide plan: Transforms are immutable and
		// concurrency-safe, so every scratch (and so every shard) scoring
		// the same grid size reuses one warmed plan.
		sc.xform = dsp.Plan(n)
	}
	sc.grid = grid
}

// MultipathFactorsInto computes the Eq. 11 multipath factors of one
// antenna's CSI row into dst (len = grid.Len()), reusing the scratch
// buffers. It is the allocation-free core of MultipathFactors.
func (sc *Scratch) MultipathFactorsInto(dst []float64, row []complex128, grid *channel.Grid) error {
	if grid == nil || grid.Len() == 0 {
		return fmt.Errorf("empty grid: %w", ErrBadInput)
	}
	if len(row) != grid.Len() {
		return fmt.Errorf("%d subcarriers for grid of %d: %w", len(row), grid.Len(), ErrBadInput)
	}
	if len(dst) != grid.Len() {
		return fmt.Errorf("dst of %d for grid of %d: %w", len(dst), grid.Len(), ErrBadInput)
	}
	n := len(row)
	sc.bindGrid(grid)

	// Resample onto a uniform index grid (the 5300 indices skip pilots),
	// through the knots precomputed by bindGrid.
	sc.uniform = growComplexes(&sc.uniform, n)
	for i := 0; i < n; i++ {
		lo, hi := sc.knotLo[i], sc.knotHi[i]
		if lo == hi {
			sc.uniform[i] = row[lo]
			continue
		}
		frac := sc.knotFrac[i]
		sc.uniform[i] = row[lo]*complex(1-frac, 0) + row[hi]*complex(frac, 0)
	}

	// Dominant-path cluster power via the strongest IDFT tap and its two
	// cyclic neighbours (see MultipathFactors for the derivation).
	sc.taps = growComplexes(&sc.taps, n)
	sc.xform.IDFTInto(sc.taps, sc.uniform)
	sc.powers = growFloats(&sc.powers, n)
	best := 0
	for i, tap := range sc.taps {
		re, im := real(tap), imag(tap)
		sc.powers[i] = re*re + im*im
		if sc.powers[i] > sc.powers[best] {
			best = i
		}
	}
	cluster := sc.powers[best]
	if n > 1 {
		cluster += sc.powers[(best+1)%n] + sc.powers[(best-1+n)%n]
	}
	pDom := float64(n) * cluster

	if sc.invSq <= 0 {
		return fmt.Errorf("degenerate frequency grid: %w", ErrBadInput)
	}
	for k, v := range row {
		re, im := real(v), imag(v)
		p := re*re + im*im
		if p <= 0 {
			dst[k] = 0
			continue
		}
		dst[k] = sc.plNum[k] * pDom / p
	}
	return nil
}

// accumulator returns the zeroed per-subcarrier accumulator.
func (sc *Scratch) accumulator(n int) []float64 {
	sc.acc = growFloats(&sc.acc, n)
	for i := range sc.acc {
		sc.acc[i] = 0
	}
	return sc.acc
}

// slabRows returns m reusable rows of n floats, all views into one
// contiguous slab so per-window passes over the whole block sweep linear
// memory.
func slabRows(rows *[][]float64, slab *[]float64, m, n int) [][]float64 {
	if cap(*rows) < m {
		*rows = make([][]float64, m)
	}
	*rows = (*rows)[:m]
	backing := growFloats(slab, m*n)
	for i := range *rows {
		(*rows)[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	return *rows
}

// perAntenna returns the reusable per-antenna weight-vector table, sizing the
// weight-row slab for nAnt rows of nSub floats up front — weightRow hands out
// views into that slab, so it must not grow (and so invalidate earlier rows)
// mid-window.
func (sc *Scratch) perAntenna(nAnt, nSub int) [][]float64 {
	if cap(sc.pant) < nAnt {
		sc.pant = make([][]float64, nAnt)
	}
	sc.pant = sc.pant[:nAnt]
	slabRows(&sc.wrows, &sc.wSlab, nAnt, nSub)
	return sc.pant
}

// weightRow returns antenna ant's weight row (a view into the slab sized by
// perAntenna).
func (sc *Scratch) weightRow(ant, n int) []float64 {
	return sc.wrows[ant][:n]
}

// medRow returns the reusable median/selection work row.
func (sc *Scratch) medRow(n int) []float64 {
	sc.med = growFloats(&sc.med, n)
	return sc.med
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growComplexes(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// WarmScratch pre-sizes every buffer the kernel's scheme touches when
// scoring a window of windowLen nAnt-antenna frames, without computing
// anything. A shard that warms its scratch for every link it might ever hold
// (work stealing can migrate any link anywhere) enters the steady state with
// the growth already paid — the first window a migrated link scores on its
// new holder allocates nothing, even for a heavy fine-grid angular link
// whose spectra dwarf every sibling's buffers.
func (k *Kernel) WarmScratch(sc *Scratch, nAnt, windowLen int) {
	if sc == nil || nAnt <= 0 || windowLen <= 0 || k.cfg.Grid == nil || k.cfg.Grid.Len() == 0 {
		return
	}
	n := k.cfg.Grid.Len()
	sc.bindGrid(k.cfg.Grid)
	growComplexes(&sc.uniform, n)
	growComplexes(&sc.taps, n)
	growFloats(&sc.powers, n)
	growFloats(&sc.acc, n)
	growFloats(&sc.med, n)
	slabRows(&sc.mus, &sc.muSlab, windowLen, n)
	sc.perAntenna(nAnt, n)
	growFloats(&sc.sw.MeanMu, n)
	growFloats(&sc.sw.StabilityRatio, n)
	growFloats(&sc.sw.Weights, n)
	if k.cfg.Scheme == SchemeSubcarrier {
		slabRows(&sc.rss, &sc.rssSlab, nAnt, n)
		if cap(sc.rssFrom) < windowLen {
			sc.rssFrom = make([]*csi.Frame, 0, windowLen)
		}
	}
	if k.cfg.Scheme == SchemeSubcarrierPath && k.plan != nil {
		growFloats(&sc.wavg, n)
		sc.winPartials.Reserve(nAnt, n)
		sc.monCov.Reuse(nAnt, nAnt)
		sc.calCov.Reuse(nAnt, nAnt)
	}
}
