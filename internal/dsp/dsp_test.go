package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	m, err := Mean(xs)
	if err != nil || math.Abs(m-2.5) > eps {
		t.Fatalf("mean = %v err = %v", m, err)
	}
	v, err := Variance(xs)
	if err != nil || math.Abs(v-1.25) > eps {
		t.Fatalf("variance = %v err = %v", v, err)
	}
	s, err := StdDev(xs)
	if err != nil || math.Abs(s-math.Sqrt(1.25)) > eps {
		t.Fatalf("stddev = %v err = %v", s, err)
	}
}

func TestEmptyInputs(t *testing.T) {
	for name, fn := range map[string]func() error{
		"mean":     func() error { _, err := Mean(nil); return err },
		"variance": func() error { _, err := Variance(nil); return err },
		"median":   func() error { _, err := Median(nil); return err },
		"pct":      func() error { _, err := Percentile(nil, 50); return err },
		"argmax":   func() error { _, err := ArgMax(nil); return err },
		"cdf":      func() error { _, err := NewCDF(nil); return err },
	} {
		if err := fn(); !errors.Is(err, ErrEmptyInput) {
			t.Fatalf("%s: err = %v, want ErrEmptyInput", name, err)
		}
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{[]float64{-1, -1, 2}, -1},
	}
	for _, tc := range tests {
		got, err := Median(tc.in)
		if err != nil {
			t.Fatalf("median(%v): %v", tc.in, err)
		}
		if math.Abs(got-tc.want) > eps {
			t.Fatalf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median mutated input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatalf("pct %v: %v", tc.p, err)
		}
		if math.Abs(got-tc.want) > eps {
			t.Fatalf("pct %v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Fatal("negative percentile accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("percentile >100 accepted")
	}
	one, err := Percentile([]float64{7}, 93)
	if err != nil || one != 7 {
		t.Fatalf("single-element pct = %v err = %v", one, err)
	}
}

func TestMinMaxArgMax(t *testing.T) {
	idx, err := ArgMax([]float64{3, -1, 7, 2})
	if err != nil || idx != 2 {
		t.Fatalf("argmax = %v err %v", idx, err)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	} {
		if got := c.At(tc.x); math.Abs(got-tc.want) > eps {
			t.Fatalf("cdf(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if q := c.Quantile(0.5); q != 2 {
		t.Fatalf("quantile(0.5) = %v, want 2", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Fatalf("quantile(0) = %v, want 1", q)
	}
	if q := c.Quantile(1); q != 3 {
		t.Fatalf("quantile(1) = %v, want 3", q)
	}
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("points lens %d %d", len(xs), len(ps))
	}
	if ps[0] > ps[len(ps)-1] {
		t.Fatalf("cdf points not nondecreasing: %v", ps)
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("cdf at max = %v, want 1", ps[len(ps)-1])
	}
}

func TestCDFQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	c, err := NewCDF(sample)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for q := 0.05; q <= 1.0; q += 0.05 {
		v := c.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// DFTInto computes the forward discrete Fourier transform of x into dst
// (len(x), no aliasing) on the cached-twiddle matrix path: the reference
// the prime-factor plan's forward direction is checked against.
//
//	X[k] = Σ_n x[n]·e^{-j2πkn/N}
func DFTInto(dst, x []complex128) { matrixDFT(dst, x, false) }

// dft and idft are allocating test shorthands for DFTInto and IDFTInto.
func dft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	DFTInto(out, x)
	return out
}

func idft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	IDFTInto(out, x)
	return out
}

// directDFT evaluates Σ_t x[t]·e^{sign·j2πkt/N} term by term, without the
// twiddle cache, scaled by scale.
func directDFT(x []complex128, sign, scale float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		for t, v := range x {
			out[k] += v * cmplx.Exp(complex(0, sign*2*math.Pi*float64(k*t)/float64(n)))
		}
		out[k] *= complex(scale, 0)
	}
	return out
}

func TestDFTIDFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 16, 30} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := idft(dft(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d roundtrip mismatch at %d: %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

// TestDFTIntoMatchesDFTAndAllocs checks the transforms agree with the
// defining sums evaluated term by term and stay allocation-free once the
// size's twiddle table is cached.
func TestDFTIntoMatchesDFTAndAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 16, 30} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		fwd := make([]complex128, n)
		inv := make([]complex128, n)
		DFTInto(fwd, x)
		IDFTInto(inv, x)
		wantF := directDFT(x, -1, 1)
		wantI := directDFT(x, 1, 1/float64(n))
		for i := range x {
			if cmplx.Abs(fwd[i]-wantF[i]) > 1e-12 || cmplx.Abs(inv[i]-wantI[i]) > 1e-12 {
				t.Fatalf("n=%d Into mismatch at %d", n, i)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			DFTInto(fwd, x)
			IDFTInto(inv, x)
		})
		if allocs > 0 {
			t.Fatalf("n=%d: transform Into allocates %v per call", n, allocs)
		}
	}
	// Zero-length inputs are a no-op, not a panic.
	DFTInto(nil, nil)
	IDFTInto(nil, nil)
}

func TestDFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	x := []complex128{1, 0, 0, 0}
	y := dft(x)
	for i, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("dft[%d] = %v, want 1", i, v)
		}
	}
}

func TestDFTSingleTone(t *testing.T) {
	// x[n] = e^{j2πn/N} concentrates in bin 1.
	const n = 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(i)/n))
	}
	y := dft(x)
	if cmplx.Abs(y[1]-complex(n, 0)) > 1e-9 {
		t.Fatalf("bin 1 = %v, want %v", y[1], n)
	}
	for i := range y {
		if i == 1 {
			continue
		}
		if cmplx.Abs(y[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, y[i])
		}
	}
}

func TestDFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]complex128, 30)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := dft(x)
	var px, py float64
	for i := range x {
		px += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		py += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	py /= float64(len(x))
	if math.Abs(px-py) > 1e-8*math.Max(1, px) {
		t.Fatalf("parseval violated: %v vs %v", px, py)
	}
}

func TestUnwrap(t *testing.T) {
	// A steadily decreasing phase wrapped into (-π, π] must unwrap to a line.
	n := 50
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := 0; i < n; i++ {
		truth[i] = -0.9 * float64(i)
		w := math.Mod(truth[i]+math.Pi, 2*math.Pi)
		if w < 0 {
			w += 2 * math.Pi
		}
		wrapped[i] = w - math.Pi
	}
	un := UnwrapInPlace(wrapped)
	for i := 1; i < n; i++ {
		d := un[i] - un[i-1]
		if math.Abs(d-(-0.9)) > 1e-9 {
			t.Fatalf("unwrap slope at %d = %v, want -0.9", i, d)
		}
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	out := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > eps {
			t.Fatalf("ma[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Width 1 (and any non-positive width) is identity.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Fatalf("identity ma differs at %d", i)
		}
	}
	neg := MovingAverage(xs, -3)
	for i := range xs {
		if neg[i] != xs[i] {
			t.Fatalf("negative-width ma differs at %d", i)
		}
	}
}

// naiveMovingAverage is the O(n·width) reference the prefix-sum
// implementation must match, edge semantics included.
func naiveMovingAverage(xs []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	out := make([]float64, len(xs))
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(xs)-1 {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// TestMovingAverageMatchesNaive cross-checks the O(n) prefix-sum rewrite
// against the naive windowed sum over random inputs, lengths, and widths —
// including even widths (rounded up) and widths larger than the input.
func TestMovingAverageMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		width := -2 + rng.Intn(2*n+6)
		got := MovingAverage(xs, width)
		want := naiveMovingAverage(xs, width)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("trial %d n=%d width=%d: ma[%d] = %v, want %v", trial, n, width, i, got[i], want[i])
			}
		}
	}
}

func TestMovingAverageEmpty(t *testing.T) {
	if out := MovingAverage(nil, 5); len(out) != 0 {
		t.Fatalf("ma(nil) = %v", out)
	}
}

// TestMovingAverageWideWindow pins the all-covering case: every output is
// the global mean once the window spans the whole input.
func TestMovingAverageWideWindow(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	out := MovingAverage(xs, 99)
	for i, v := range out {
		if math.Abs(v-5) > eps {
			t.Fatalf("wide ma[%d] = %v, want 5", i, v)
		}
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > eps || math.Abs(f.Intercept-1) > eps {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > eps {
		t.Fatalf("r2 = %v, want 1", f.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("len mismatch accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("degenerate xs accepted")
	}
}

func TestFitLogExact(t *testing.T) {
	// y = -3·ln(x) + 0.5
	xs := []float64{0.1, 0.2, 0.5, 1.0}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = -3*math.Log(x) + 0.5
	}
	f, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A+3) > 1e-8 || math.Abs(f.B-0.5) > 1e-8 {
		t.Fatalf("log fit = %+v", f)
	}
}

func TestFitLogSkipsNonPositive(t *testing.T) {
	xs := []float64{-1, 0, 1, math.E}
	ys := []float64{99, 99, 1, 2} // y = ln(x) + 1 on the valid points
	f, err := FitLog(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.A-1) > 1e-8 || math.Abs(f.B-1) > 1e-8 {
		t.Fatalf("log fit = %+v", f)
	}
	if _, err := FitLog([]float64{-1, 0}, []float64{1, 2}); err == nil {
		t.Fatal("all-nonpositive xs accepted")
	}
}

// Property: DFT is linear.
func TestQuickDFTLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(12)
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		a := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		lhs := dft(sum)
		dx := dft(x)
		dy := dft(y)
		for i := range lhs {
			want := a*dx[i] + dy[i]
			if cmplx.Abs(lhs[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: empirical CDF is monotone nondecreasing and bounded by [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		c, err := NewCDF(clean)
		if err != nil {
			return false
		}
		lo, hi := slices.Min(clean), slices.Max(clean)
		prev := -1.0
		for i := 0; i <= 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.At(hi) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
