package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// TestTransformMatchesMatrixDFT checks the planned inverse transform against
// the O(n²) reference for every size up to 64 — products of distinct primes
// from {2, 3, 5} take the prime-factor plan, every other size the matrix
// path.
func TestTransformMatchesMatrixDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 64; n++ {
		x := randComplex(rng, n)
		p := NewTransform(n)
		if p.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, p.Len())
		}
		got := make([]complex128, n)
		p.IDFTInto(got, x)
		want := idft(x)
		for k := 0; k < n; k++ {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9 {
				t.Fatalf("n=%d IDFT[%d]: |planned-matrix| = %g", n, k, d)
			}
		}
	}
}

// TestTransformRoundTrip checks IDFT(DFT(x)) ≈ x through the prime-factor
// plan in both directions.
func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 5, 6, 10, 15, 30} {
		p := NewTransform(n)
		x := randComplex(rng, n)
		fwd := make([]complex128, n)
		back := make([]complex128, n)
		p.pfa.run(fwd, x, false)
		p.IDFTInto(back, fwd)
		for k := range x {
			if d := cmplx.Abs(back[k] - x[k]); d > 1e-9 {
				t.Fatalf("n=%d round trip[%d]: |err| = %g", n, k, d)
			}
		}
	}
}

// TestTransformMismatchedLengthFallsBack feeds a 30-planned transform a
// 12-point vector; the generic path must serve it correctly.
func TestTransformMismatchedLengthFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewTransform(30)
	x := randComplex(rng, 12)
	got := make([]complex128, 12)
	p.IDFTInto(got, x)
	want := idft(x)
	for k := range want {
		if d := cmplx.Abs(got[k] - want[k]); d > 1e-12 {
			t.Fatalf("fallback IDFT[%d]: |err| = %g", k, d)
		}
	}
}

// TestTransformAllocFree asserts the planned hot path allocates nothing.
func TestTransformAllocFree(t *testing.T) {
	p := NewTransform(30)
	x := randComplex(rand.New(rand.NewSource(5)), 30)
	dst := make([]complex128, 30)
	p.IDFTInto(dst, x) // prime twiddle cache
	if avg := testing.AllocsPerRun(100, func() { p.IDFTInto(dst, x) }); avg != 0 {
		t.Fatalf("Transform.IDFTInto allocates %v per run", avg)
	}
}

// TestMedianInPlaceMatchesMedian cross-checks quickselect against the
// sorting implementation over random lengths, duplicates and NaNs.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = float64(rng.Intn(3)) // force duplicates
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		if trial%25 == 0 {
			xs[rng.Intn(n)] = math.NaN()
		}
		want := sortMedian(xs)
		got, err := MedianInPlace(append([]float64(nil), xs...))
		if err != nil {
			t.Fatal(err)
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: MedianInPlace = %v, sort median = %v (xs=%v)", trial, got, want, xs)
		}
	}
	if _, err := MedianInPlace(nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty MedianInPlace: %v, want ErrEmptyInput", err)
	}
}

// sortMedian is the reference implementation: full sort, middle element(s).
func sortMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TestMedianInPlaceAllocFree asserts the quickselect path allocates nothing.
func TestMedianInPlaceAllocFree(t *testing.T) {
	xs := make([]float64, 31)
	rng := rand.New(rand.NewSource(23))
	if avg := testing.AllocsPerRun(100, func() {
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		if _, err := MedianInPlace(xs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("MedianInPlace allocates %v per run", avg)
	}
}

// TestPrimeFactorTransformOracle checks the Good–Thomas path against the
// O(n²) matrix transforms on every size it plans (the products of distinct
// primes from {2, 3, 5}), both directions, over many random vectors: the
// worst error must stay within 1e-12 of the vector's largest coefficient.
func TestPrimeFactorTransformOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var planned []int
	for n := 0; n <= 64; n++ {
		if NewTransform(n).pfa != nil {
			planned = append(planned, n)
		}
	}
	if want := []int{2, 3, 5, 6, 10, 15, 30}; len(planned) != len(want) {
		t.Fatalf("prime-factor sizes %v, want %v", planned, want)
	}
	relErr := func(got, want []complex128) float64 {
		var maxErr, scale float64
		for k := range want {
			maxErr = math.Max(maxErr, cmplx.Abs(got[k]-want[k]))
			scale = math.Max(scale, cmplx.Abs(want[k]))
		}
		return maxErr / scale
	}
	for _, n := range planned {
		p := Plan(n)
		got := make([]complex128, n)
		want := make([]complex128, n)
		for trial := 0; trial < 200; trial++ {
			x := randComplex(rng, n)
			p.pfa.run(got, x, false)
			DFTInto(want, x)
			if e := relErr(got, want); e > 1e-12 {
				t.Fatalf("n=%d DFT: relative error %g", n, e)
			}
			p.IDFTInto(got, x)
			IDFTInto(want, x)
			if e := relErr(got, want); e > 1e-12 {
				t.Fatalf("n=%d IDFT: relative error %g", n, e)
			}
		}
	}
}

// BenchmarkTransform30 times one 30-point IDFT — the per-packet
// power-delay-profile transform — on the prime-factor plan and on the
// matrix path every other size takes.
func BenchmarkTransform30(b *testing.B) {
	x := randComplex(rand.New(rand.NewSource(5)), 30)
	dst := make([]complex128, 30)
	for _, bc := range []struct {
		name string
		idft func(dst, x []complex128)
	}{{"pfa", NewTransform(30).IDFTInto}, {"matrix", IDFTInto}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.idft(dst, x)
			}
		})
	}
}
