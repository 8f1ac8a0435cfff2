package channel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestIntel5300Indices(t *testing.T) {
	idx := Intel5300Indices()
	if len(idx) != NumSubcarriers {
		t.Fatalf("len = %d", len(idx))
	}
	// Exact footnote-1 list spot checks.
	if idx[0] != -28 || idx[14] != -1 || idx[15] != 1 || idx[29] != 28 {
		t.Fatalf("indices = %v", idx)
	}
	// Strictly increasing.
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("not increasing at %d: %v", i, idx)
		}
	}
	// Returned slice must be a copy.
	idx[0] = 99
	if Intel5300Indices()[0] != -28 {
		t.Fatal("Intel5300Indices returns aliased storage")
	}
}

func TestNewIntel5300Grid(t *testing.T) {
	g, err := NewIntel5300Grid(CenterFreqChannel11)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 30 {
		t.Fatalf("len = %d", g.Len())
	}
	fs := g.Frequencies()
	if math.Abs(fs[0]-(2.462e9-28*312.5e3)) > 1 {
		t.Fatalf("f[0] = %v", fs[0])
	}
	if math.Abs(fs[29]-(2.462e9+28*312.5e3)) > 1 {
		t.Fatalf("f[29] = %v", fs[29])
	}
	// All within the 20 MHz channel.
	for _, f := range fs {
		if math.Abs(f-CenterFreqChannel11) > 10e6 {
			t.Fatalf("subcarrier %v outside channel", f)
		}
	}
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewIntel5300Grid(c); !errors.Is(err, ErrBadGrid) {
			t.Fatalf("center %v err = %v", c, err)
		}
	}
}

func TestAddAWGNSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	h := make([]complex128, n)
	for i := range h {
		h[i] = 1
	}
	const snr = 20.0
	noisy := AddAWGN(h, snr, rng)
	var noisePower float64
	for i := range h {
		d := noisy[i] - h[i]
		noisePower += real(d)*real(d) + imag(d)*imag(d)
	}
	noisePower /= float64(n)
	want := math.Pow(10, -snr/10)
	if math.Abs(noisePower-want)/want > 0.1 {
		t.Fatalf("noise power %v, want ≈%v", noisePower, want)
	}
}

func TestAddAWGNDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := []complex128{1 + 1i, 2}
	_ = AddAWGN(h, 10, rng)
	if h[0] != 1+1i || h[1] != 2 {
		t.Fatalf("input mutated: %v", h)
	}
}

func TestAddAWGNNilRNG(t *testing.T) {
	h := []complex128{1, 2}
	out := AddAWGN(h, 10, nil)
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("nil rng altered data: %v", out)
	}
	if len(AddAWGN(nil, 10, nil)) != 0 {
		t.Fatal("empty input should return empty")
	}
}

func TestAddAWGNHigherSNRLessNoise(t *testing.T) {
	mkNoise := func(snr float64) float64 {
		rng := rand.New(rand.NewSource(7))
		h := make([]complex128, 5000)
		for i := range h {
			h[i] = 1
		}
		noisy := AddAWGN(h, snr, rng)
		var p float64
		for i := range h {
			d := noisy[i] - h[i]
			p += real(d)*real(d) + imag(d)*imag(d)
		}
		return p
	}
	if mkNoise(30) >= mkNoise(10) {
		t.Fatal("higher SNR produced more noise")
	}
}

// AddAWGN is AddAWGNInPlace on a copy of h, so the tests can compare the
// noisy response with the clean one. A nil rng or an empty input returns a
// copy of h unchanged.
func AddAWGN(h []complex128, snrDB float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, len(h))
	copy(out, h)
	AddAWGNInPlace(out, snrDB, rng)
	return out
}
