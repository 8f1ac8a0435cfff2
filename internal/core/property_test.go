package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlink/internal/music"
)

// Property: Eq. 15 weights are non-negative, finite, and invariant to a
// uniform scaling of all multipath factors (the normalization divides the
// scale out).
func TestQuickSubcarrierWeightsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		m := 2 + r.Intn(8)
		k := 2 + r.Intn(20)
		mus := make([][]float64, m)
		for i := range mus {
			mus[i] = make([]float64, k)
			for j := range mus[i] {
				mus[i][j] = 0.05 + r.Float64()*3
			}
		}
		sw, err := subcarrierWeights(mus)
		if err != nil {
			return false
		}
		for _, w := range sw.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
		for _, rk := range sw.StabilityRatio {
			if rk < 0 || rk > 1 {
				return false
			}
		}
		// Scale invariance.
		scaled := make([][]float64, m)
		for i := range mus {
			scaled[i] = make([]float64, k)
			for j := range mus[i] {
				scaled[i][j] = mus[i][j] * 7.5
			}
		}
		sw2, err := subcarrierWeights(scaled)
		if err != nil {
			return false
		}
		for j := range sw.Weights {
			// Weights scale by the factor in the numerator but the double
			// normalization keeps ratios identical; compare normalized.
			a := sw.Weights[j] * float64(k*k)
			b := sw2.Weights[j] * float64(k*k)
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. 12 per-packet weights sum to 1 for positive inputs.
func TestQuickPerPacketWeightsSumToOne(t *testing.T) {
	f := func(raw []float64) bool {
		mu := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Clamp to a physical μ range so the sum cannot overflow.
			mu = append(mu, math.Mod(math.Abs(x), 10)+0.01)
		}
		if len(mu) == 0 {
			return true
		}
		w, err := perPacketWeights(mu)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: weightedSpectrumDistance is a pseudmetric — symmetric,
// zero on identical spectra, and non-negative.
func TestQuickSpectrumDistancePseudometric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 2 + r.Intn(30)
		mkSpec := func() []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = r.Float64() * 10
			}
			return out
		}
		angles := make([]float64, n)
		for i := range angles {
			angles[i] = float64(i)
		}
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.1 + r.Float64()
		}
		a := &specOf{angles, mkSpec()}
		b := &specOf{angles, mkSpec()}
		dab, err := weightedSpectrumDistance(a.spec(), b.spec(), w)
		if err != nil {
			return false
		}
		dba, err := weightedSpectrumDistance(b.spec(), a.spec(), w)
		if err != nil {
			return false
		}
		daa, err := weightedSpectrumDistance(a.spec(), a.spec(), w)
		if err != nil {
			return false
		}
		return dab >= 0 && math.Abs(dab-dba) < 1e-12 && daa == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// specOf avoids importing music in the property test's closure signatures.
type musicSpectrum = music.Spectrum

type specOf struct {
	angles []float64
	power  []float64
}

func (s *specOf) spec() *musicSpectrum {
	return &musicSpectrum{AnglesDeg: s.angles, Power: s.power}
}
