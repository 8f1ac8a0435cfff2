package music

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"mlink/internal/binio"
	"mlink/internal/linalg"
)

// relDiff is the symmetric relative difference used by the cached-vs-naive
// property assertions.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestScanGridLengthStable pins the index-based grid: its length has a
// closed form for any StepDeg, every angle is -maxDeg + i·step exactly, and
// repeated spectrum computations agree on the grid — the float-accumulation
// loop this replaced could gain or lose a trailing angle depending on step.
func TestScanGridLengthStable(t *testing.T) {
	cases := []struct {
		step, maxDeg float64
		want         int
	}{
		{1, 90, 181}, // default grid: must stay 181 for persisted profiles
		{0.5, 90, 361},
		{0.7, 90, 258}, // 2·90/0.7 = 257.14… → floor+1
		{2.5, 90, 73},
		{0.05, 90, 3601},
		{1, 60, 121},
		{0.1, 45, 901}, // 0.1 is inexact in binary; the 1e-9 guard keeps the endpoint
	}
	for _, tc := range cases {
		est, err := NewEstimator(ulaOffsets(3), lambda)
		if err != nil {
			t.Fatal(err)
		}
		est.StepDeg, est.MaxDeg = tc.step, tc.maxDeg
		plan, err := est.NewPlan()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.anglesDeg) != tc.want {
			t.Errorf("step=%v max=%v: plan has %d angles, want %d", tc.step, tc.maxDeg, len(plan.anglesDeg), tc.want)
		}
		frames := syntheticFrames(t, []float64{10}, []float64{1}, 8, 20, 1)
		r, err := Covariance(frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := pseudospectrum(est, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := bartlett(est, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.AnglesDeg) != tc.want || len(bs.AnglesDeg) != tc.want {
			t.Errorf("step=%v max=%v: spectra lengths %d/%d, want %d",
				tc.step, tc.maxDeg, len(ps.AnglesDeg), len(bs.AnglesDeg), tc.want)
		}
		for i, a := range plan.anglesDeg {
			if want := -tc.maxDeg + float64(i)*tc.step; a != want {
				t.Fatalf("step=%v angle[%d]=%v, want exactly %v", tc.step, i, a, want)
			}
			if ps.AnglesDeg[i] != a || bs.AnglesDeg[i] != a {
				t.Fatalf("step=%v angle[%d]: plan/pseudo/bartlett disagree: %v/%v/%v",
					tc.step, i, a, ps.AnglesDeg[i], bs.AnglesDeg[i])
			}
		}
	}
}

// TestCovarianceRejectsNegativeWeights covers the naive path and both
// partials-based paths with the same weight-validation table.
func TestCovarianceRejectsNegativeWeights(t *testing.T) {
	frames := syntheticFrames(t, []float64{0}, []float64{1}, 4, 0, 2)
	nSub := frames[0].NumSubcarriers()
	mkWeights := func(bad int) []float64 {
		w := make([]float64, nSub)
		for i := range w {
			w[i] = 1
		}
		if bad >= 0 {
			w[bad] = -0.25
		}
		return w
	}
	for _, bad := range []int{0, 7, nSub - 1} {
		w := mkWeights(bad)
		if _, err := Covariance(frames, w); !errors.Is(err, ErrBadInput) {
			t.Errorf("Covariance(bad=%d): err=%v, want ErrBadInput", bad, err)
		}
		parts, err := NewPartials(frames)
		if err != nil {
			t.Fatal(err)
		}
		var dst linalg.Matrix
		if err := parts.CovarianceInto(&dst, w); !errors.Is(err, ErrBadInput) {
			t.Errorf("Partials.CovarianceInto(bad=%d): err=%v, want ErrBadInput", bad, err)
		}
		if err := CovarianceInto(&dst, frames, w, nil); !errors.Is(err, ErrBadInput) {
			t.Errorf("CovarianceInto(bad=%d): err=%v, want ErrBadInput", bad, err)
		}
	}
	// Sanity: the all-positive control passes everywhere.
	if _, err := Covariance(frames, mkWeights(-1)); err != nil {
		t.Errorf("all-positive weights rejected: %v", err)
	}
}

// TestPartialsCovarianceMatchesNaive asserts the per-subcarrier partials
// identity against the retained naive Covariance, entry by entry, across
// weight shapes (nil, uniform, sparse, zero-heavy).
func TestPartialsCovarianceMatchesNaive(t *testing.T) {
	frames := syntheticFrames(t, []float64{-20, 35}, []float64{1, 0.6}, 12, 15, 3)
	nSub := frames[0].NumSubcarriers()
	sparse := make([]float64, nSub)
	for i := range sparse {
		if i%3 == 0 {
			sparse[i] = float64(i%5) + 0.5
		}
	}
	uniform := make([]float64, nSub)
	for i := range uniform {
		uniform[i] = 0.8
	}
	for name, w := range map[string][]float64{"nil": nil, "uniform": uniform, "sparse": sparse} {
		want, err := Covariance(frames, w)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := NewPartials(frames)
		if err != nil {
			t.Fatal(err)
		}
		if parts.frames != len(frames) {
			t.Fatalf("%s: partials cover %d frames, want %d", name, parts.frames, len(frames))
		}
		var got linalg.Matrix
		if err := parts.CovarianceInto(&got, w); err != nil {
			t.Fatal(err)
		}
		var pkgGot linalg.Matrix
		if err := CovarianceInto(&pkgGot, frames, w, &Partials{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for tag, m := range map[string]*linalg.Matrix{"partials": &got, "package": &pkgGot} {
					d := m.At(i, j) - want.At(i, j)
					scale := math.Max(1e-300, complexAbs(want.At(i, j)))
					if complexAbs(d)/scale > 1e-9 {
						t.Errorf("%s/%s R[%d,%d]=%v, naive %v", name, tag, i, j, m.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
	// Zero weights must fail identically to the naive path.
	zero := make([]float64, nSub)
	parts, err := NewPartials(frames)
	if err != nil {
		t.Fatal(err)
	}
	var dst linalg.Matrix
	if err := parts.CovarianceInto(&dst, zero); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero weights: err=%v, want ErrBadInput", err)
	}
}

// TestPartialsBinaryRoundTrip pins the partials' wire form: a round trip
// restores every field bit for bit, so the weight-combine is unchanged.
// internal/core's profile-record tests cover hostile input.
func TestPartialsBinaryRoundTrip(t *testing.T) {
	frames := syntheticFrames(t, []float64{-20, 35}, []float64{1, 0.6}, 12, 15, 3)
	parts, err := NewPartials(frames)
	if err != nil {
		t.Fatal(err)
	}
	blob := parts.AppendBinary(nil)
	r := binio.NewReader(blob)
	back, err := ReadPartials(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, parts) {
		t.Fatal("partials did not round-trip")
	}
	for i, v := range parts.sums {
		w := back.sums[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			t.Fatalf("sum %d: %v != %v bit for bit", i, w, v)
		}
	}
}

func complexAbs(v complex128) float64 {
	return math.Hypot(real(v), imag(v))
}

// TestPlanIntoMatchesNaive asserts BartlettInto and PseudospectrumInto
// reproduce the naive allocating paths within 1e-9 relative, across step
// sizes and reused destination buffers.
func TestPlanIntoMatchesNaive(t *testing.T) {
	for _, step := range []float64{1, 0.5, 2.5} {
		est, err := NewEstimator(ulaOffsets(3), lambda)
		if err != nil {
			t.Fatal(err)
		}
		est.StepDeg = step
		plan, err := est.NewPlan()
		if err != nil {
			t.Fatal(err)
		}
		var dstB, dstP Spectrum
		var ws linalg.EigWorkspace
		for _, seed := range []int64{1, 5, 9} {
			frames := syntheticFrames(t, []float64{-15, 40}, []float64{1, 0.7}, 10, 18, seed)
			r, err := Covariance(frames, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := bartlett(est, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.BartlettInto(&dstB, r); err != nil {
				t.Fatal(err)
			}
			compareSpectra(t, "bartlett", &dstB, wantB)
			for _, nSig := range []int{0, 1, 2, 5} {
				wantP, err := pseudospectrum(est, r, nSig)
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.PseudospectrumInto(&dstP, r, nSig, &ws); err != nil {
					t.Fatal(err)
				}
				compareSpectra(t, "pseudo", &dstP, wantP)
			}
		}
	}
}

func compareSpectra(t *testing.T, tag string, got, want *Spectrum) {
	t.Helper()
	if len(got.Power) != len(want.Power) {
		t.Fatalf("%s: %d angles, want %d", tag, len(got.Power), len(want.Power))
	}
	for i := range got.Power {
		if got.AnglesDeg[i] != want.AnglesDeg[i] {
			t.Fatalf("%s: angle[%d]=%v, want %v", tag, i, got.AnglesDeg[i], want.AnglesDeg[i])
		}
		if math.IsInf(want.Power[i], 1) {
			if !math.IsInf(got.Power[i], 1) {
				t.Fatalf("%s: power[%d]=%v, want +Inf", tag, i, got.Power[i])
			}
			continue
		}
		if relDiff(got.Power[i], want.Power[i]) > 1e-9 {
			t.Fatalf("%s: power[%d]=%v, want %v", tag, i, got.Power[i], want.Power[i])
		}
	}
}

// TestInPlaceSpectrumOpsMatchAllocating pins NormalizeInPlace to Normalized,
// including the degenerate inputs Normalized special-cases.
func TestInPlaceSpectrumOpsMatchAllocating(t *testing.T) {
	cases := map[string][]float64{
		"regular":  {1, 4, 2, 0.5},
		"has-inf":  {1, math.Inf(1), 3},
		"all-zero": {0, 0, 0},
		"tiny":     {1e-33, 5e-31, 2e-29},
	}
	for name, pow := range cases {
		angles := make([]float64, len(pow))
		for i := range angles {
			angles[i] = float64(i)
		}
		mk := func() *Spectrum {
			return &Spectrum{AnglesDeg: append([]float64(nil), angles...), Power: append([]float64(nil), pow...)}
		}
		want := mk().Normalized()
		got := mk()
		got.NormalizeInPlace()
		for i := range want.Power {
			if relDiff(got.Power[i], want.Power[i]) > 1e-12 &&
				!(math.IsInf(got.Power[i], 1) && math.IsInf(want.Power[i], 1)) {
				t.Errorf("%s: NormalizeInPlace[%d]=%v, Normalized=%v", name, i, got.Power[i], want.Power[i])
			}
		}
	}
}

// TestPlanSharedAcrossGoroutines drives one Plan (and one profile-side
// Partials) from several scorer goroutines with private destination buffers
// and workspaces — the production sharing shape (run under -race in CI).
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	est, err := NewEstimator(ulaOffsets(3), lambda)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := est.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	calFrames := syntheticFrames(t, []float64{25}, []float64{1}, 8, 20, 7)
	shared, err := NewPartials(calFrames)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var cov linalg.Matrix
			var spec Spectrum
			var ws linalg.EigWorkspace
			var scratch Partials
			frames := syntheticFrames(t, []float64{-10}, []float64{1}, 6, 15, int64(100+g))
			for iter := 0; iter < 20; iter++ {
				if err := shared.CovarianceInto(&cov, nil); err != nil {
					errs <- err
					return
				}
				if err := plan.BartlettInto(&spec, &cov); err != nil {
					errs <- err
					return
				}
				if err := CovarianceInto(&cov, frames, nil, &scratch); err != nil {
					errs <- err
					return
				}
				if err := plan.PseudospectrumInto(&spec, &cov, 1, &ws); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanIntoAllocFree pins the steady-state claim the benchmarks gate: with
// warmed destinations, the full Into pipeline allocates nothing.
func TestPlanIntoAllocFree(t *testing.T) {
	est, err := NewEstimator(ulaOffsets(3), lambda)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := est.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	frames := syntheticFrames(t, []float64{5}, []float64{1}, 8, 20, 11)
	var cov linalg.Matrix
	var spec Spectrum
	var ws linalg.EigWorkspace
	var scratch Partials
	run := func() {
		if err := CovarianceInto(&cov, frames, nil, &scratch); err != nil {
			t.Fatal(err)
		}
		if err := plan.BartlettInto(&spec, &cov); err != nil {
			t.Fatal(err)
		}
		if err := plan.PseudospectrumInto(&spec, &cov, 1, &ws); err != nil {
			t.Fatal(err)
		}
		spec.NormalizeInPlace()
	}
	run() // warm buffers
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("warm Into pipeline allocates %v/op, want 0", allocs)
	}
}

// planCount is the number of geometries in the process-wide plan cache.
func planCount() int {
	n := 0
	planCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// requirePlanBits fails unless got's angle axis and steering table equal
// want's bit for bit.
func requirePlanBits(t *testing.T, tag string, got, want *Plan) {
	t.Helper()
	if got.nAnt != want.nAnt || len(got.anglesDeg) != len(want.anglesDeg) || len(got.steer) != len(want.steer) {
		t.Fatalf("%s: plan shape %d×%d, want %d×%d", tag, len(got.anglesDeg), got.nAnt, len(want.anglesDeg), want.nAnt)
	}
	for i, a := range got.anglesDeg {
		if math.Float64bits(a) != math.Float64bits(want.anglesDeg[i]) {
			t.Fatalf("%s: angle %d is %v, want %v", tag, i, a, want.anglesDeg[i])
		}
	}
	if !sameSteerBits(got, want) {
		t.Fatalf("%s: steering table differs from a fresh build", tag)
	}
}

func sameSteerBits(a, b *Plan) bool {
	for i, v := range a.steer {
		w := b.steer[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// freshPlan builds e's plan without the cache.
func freshPlan(e *Estimator) *Plan {
	return e.buildPlan(e.scanGrid())
}

// TestNewPlanSharedPerGeometry: estimators with one geometry — separately
// allocated offsets, and scan parameters that resolve to the same grid —
// get one plan.
func TestNewPlanSharedPerGeometry(t *testing.T) {
	plan := func(offsets []float64, step, maxDeg float64) *Plan {
		t.Helper()
		p, err := (&Estimator{Offsets: offsets, Wavelength: lambda, StepDeg: step, MaxDeg: maxDeg}).NewPlan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := plan(ulaOffsets(3), 1, 90)
	if again := plan(ulaOffsets(3), 1, 90); again != base {
		t.Fatal("same geometry returned two plans")
	}
	if p := plan(ulaOffsets(3), 0, 90); p != base {
		t.Fatal("StepDeg 0 and 1 resolve to one grid but got two plans")
	}
	if p := plan(ulaOffsets(3), 1, 0); p != base {
		t.Fatal("MaxDeg 0 and 90 resolve to one grid but got two plans")
	}
	requirePlanBits(t, "shared", base, freshPlan(&Estimator{Offsets: ulaOffsets(3), Wavelength: lambda}))
}

// TestNewPlanKeyedOnExactGeometry changes one input at a time — one offset
// bit, the sign of a zero offset, the wavelength, the step, the bound —
// and requires a plan of its own that equals a fresh build bit for bit.
func TestNewPlanKeyedOnExactGeometry(t *testing.T) {
	base := Estimator{Offsets: ulaOffsets(3), Wavelength: lambda, StepDeg: 0.5, MaxDeg: 90}
	if base.Offsets[1] != 0 || math.Signbit(base.Offsets[1]) {
		t.Fatalf("middle element at %v, want +0", base.Offsets[1])
	}
	basePlan, err := base.NewPlan()
	if err != nil {
		t.Fatal(err)
	}
	variant := func(mut func(e *Estimator)) *Estimator {
		e := base
		e.Offsets = append([]float64(nil), base.Offsets...)
		mut(&e)
		return &e
	}
	cases := []struct {
		name string
		est  *Estimator
	}{
		{"offset ulp", variant(func(e *Estimator) { e.Offsets[0] = math.Nextafter(e.Offsets[0], 0) })},
		{"-0 offset", variant(func(e *Estimator) { e.Offsets[1] = math.Copysign(0, -1) })},
		{"wavelength ulp", variant(func(e *Estimator) { e.Wavelength = math.Nextafter(e.Wavelength, 1) })},
		{"step", variant(func(e *Estimator) { e.StepDeg = 0.25 })},
		{"max", variant(func(e *Estimator) { e.MaxDeg = 60 })},
	}
	seen := map[*Plan]string{basePlan: "base"}
	for _, tc := range cases {
		p, err := tc.est.NewPlan()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("%s: shares its plan with %s", tc.name, prev)
		}
		seen[p] = tc.name
		requirePlanBits(t, tc.name, p, freshPlan(tc.est))
		if again, _ := tc.est.NewPlan(); again != p {
			t.Fatalf("%s: second call returned another plan", tc.name)
		}
	}
	// The sign of a zero offset reaches the table (sin(−0·s) keeps the
	// sign), which is why the key compares bits and not values.
	neg := cases[1].est
	negPlan, _ := neg.NewPlan()
	if sameSteerBits(negPlan, basePlan) {
		t.Fatal("−0 and +0 offsets built bit-identical tables; the test no longer covers the sign")
	}
}

// TestNewPlanConcurrentFirstUse: goroutines that ask for one new geometry
// at once all get the same plan (run under -race in CI).
func TestNewPlanConcurrentFirstUse(t *testing.T) {
	const goroutines = 16
	est := Estimator{Offsets: ulaOffsets(4), Wavelength: lambda * 1.0625, StepDeg: 0.05}
	start := make(chan struct{})
	plans := make([]*Plan, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := est
			e.Offsets = append([]float64(nil), est.Offsets...)
			<-start
			plans[g], errs[g] = e.NewPlan()
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range plans {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if plans[g] != plans[0] {
			t.Fatalf("goroutine %d got its own plan", g)
		}
	}
	requirePlanBits(t, "concurrent", plans[0], freshPlan(&est))
}

// TestNewPlanRejectsInvalidEstimator: validation runs before the cache, so
// a bad estimator gets ErrBadInput and leaves no entry behind.
func TestNewPlanRejectsInvalidEstimator(t *testing.T) {
	before := planCount()
	for _, e := range []*Estimator{
		{Offsets: []float64{0}, Wavelength: lambda},
		{Offsets: ulaOffsets(3), Wavelength: 0},
		{Offsets: ulaOffsets(3), Wavelength: -lambda},
	} {
		if p, err := e.NewPlan(); !errors.Is(err, ErrBadInput) || p != nil {
			t.Fatalf("%+v: plan %v, err %v; want ErrBadInput", e, p, err)
		}
	}
	if after := planCount(); after != before {
		t.Fatalf("invalid estimators left %d cache entries", after-before)
	}
}
