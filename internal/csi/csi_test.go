package csi

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mlink/internal/body"
	"mlink/internal/channel"
	"mlink/internal/geom"
	"mlink/internal/propagation"
)

func testEnv(t *testing.T) *propagation.Environment {
	t.Helper()
	room, err := propagation.RectRoom(6, 8, propagation.Drywall)
	if err != nil {
		t.Fatal(err)
	}
	lambda := propagation.SpeedOfLight / channel.CenterFreqChannel11
	rx, err := propagation.NewULA(geom.Point{X: 5, Y: 4}, math.Pi, 3, lambda/2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := propagation.NewEnvironment(room, geom.Point{X: 1, Y: 4}, rx, propagation.DefaultLinkParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func testGrid(t *testing.T) *channel.Grid {
	t.Helper()
	g, err := channel.NewIntel5300Grid(channel.CenterFreqChannel11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newExtractor(t *testing.T, imp Impairments, seed int64) *Extractor {
	t.Helper()
	x, err := NewExtractor(testEnv(t), testGrid(t), imp, 50, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestCaptureShape(t *testing.T) {
	x := newExtractor(t, DefaultImpairments(), 1)
	f := x.Capture(nil)
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid frame: %v", err)
	}
	if f.NumAntennas() != 3 || f.NumSubcarriers() != 30 {
		t.Fatalf("shape %dx%d", f.NumAntennas(), f.NumSubcarriers())
	}
	if len(f.RSSI) != 3 {
		t.Fatalf("rssi len = %d", len(f.RSSI))
	}
	for _, r := range f.RSSI {
		if math.IsInf(r, 0) || math.IsNaN(r) {
			t.Fatalf("rssi = %v", f.RSSI)
		}
	}
}

func TestCaptureSequencing(t *testing.T) {
	x := newExtractor(t, DefaultImpairments(), 2)
	f0 := x.Capture(nil)
	f1 := x.Capture(nil)
	if f0.Seq != 0 || f1.Seq != 1 {
		t.Fatalf("seqs = %d %d", f0.Seq, f1.Seq)
	}
	// 50 pkt/s → 20 ms per packet.
	if f1.TimestampMicros-f0.TimestampMicros != 20000 {
		t.Fatalf("timestamps = %d %d", f0.TimestampMicros, f1.TimestampMicros)
	}
}

func TestCaptureNoiseless(t *testing.T) {
	imp := Impairments{} // everything off
	x, err := NewExtractor(testEnv(t), testGrid(t), imp, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	f0 := x.Capture(nil)
	f1 := x.Capture(nil)
	// Without impairments, consecutive captures of a static room agree.
	for ant := range f0.CSI {
		for k := range f0.CSI[ant] {
			if f0.CSI[ant][k] != f1.CSI[ant][k] {
				t.Fatalf("noiseless captures differ at [%d][%d]", ant, k)
			}
		}
	}
}

func TestNilRNGRejectedWithImpairments(t *testing.T) {
	if _, err := NewExtractor(testEnv(t), testGrid(t), DefaultImpairments(), 50, nil); err == nil {
		t.Fatal("nil rng accepted with impairments")
	}
	if _, err := NewExtractor(nil, testGrid(t), Impairments{}, 50, nil); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := NewExtractor(testEnv(t), nil, Impairments{}, 50, nil); !errors.Is(err, channel.ErrBadGrid) {
		t.Fatalf("nil grid err = %v", err)
	}
}

func TestCommonPhaseIsCommonAcrossAntennas(t *testing.T) {
	// With only the common phase enabled, the inter-antenna phase
	// difference must be impairment-free.
	clean, err := NewExtractor(testEnv(t), testGrid(t), Impairments{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	dirty := newExtractor(t, Impairments{RandomCommonPhase: true}, 3)
	fc := clean.Capture(nil)
	fd := dirty.Capture(nil)
	for k := 0; k < fc.NumSubcarriers(); k++ {
		want := cmplx.Phase(fc.CSI[1][k] / fc.CSI[0][k])
		got := cmplx.Phase(fd.CSI[1][k] / fd.CSI[0][k])
		if math.Abs(want-got) > 1e-9 {
			t.Fatalf("inter-antenna phase changed at %d: %v vs %v", k, got, want)
		}
	}
}

func TestSTOAddsLinearPhaseSlope(t *testing.T) {
	clean, err := NewExtractor(testEnv(t), testGrid(t), Impairments{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	dirty := newExtractor(t, Impairments{MaxSTOSeconds: 50e-9}, 4)
	fc := clean.Capture(nil)
	fd := dirty.Capture(nil)
	// The phase error must be (approximately) linear in subcarrier
	// frequency: check the second difference of the error is ≈0.
	idx := channel.Intel5300Indices()
	errPhase := make([]float64, len(idx))
	for k := range idx {
		errPhase[k] = cmplx.Phase(fd.CSI[0][k] / fc.CSI[0][k])
	}
	// Unwrap.
	for k := 1; k < len(errPhase); k++ {
		for errPhase[k]-errPhase[k-1] > math.Pi {
			errPhase[k] -= 2 * math.Pi
		}
		for errPhase[k]-errPhase[k-1] < -math.Pi {
			errPhase[k] += 2 * math.Pi
		}
	}
	// Fit slope against index and check residuals are tiny.
	var sx, sy, sxx, sxy float64
	for k, v := range idx {
		x := float64(v)
		sx += x
		sy += errPhase[k]
		sxx += x * x
		sxy += x * errPhase[k]
	}
	n := float64(len(idx))
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept := (sy - slope*sx) / n
	for k, v := range idx {
		res := errPhase[k] - (slope*float64(v) + intercept)
		if math.Abs(res) > 1e-6 {
			t.Fatalf("sto phase not linear at %d: residual %v", k, res)
		}
	}
	if slope == 0 {
		t.Fatal("sto produced no slope")
	}
}

func TestQuantization(t *testing.T) {
	in := []complex128{complex(1, -0.5), complex(0.3, 0.7)}
	out := quantize(in, 8)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	// Quantization error bounded by half a step: peak=1 → step = 1/127.
	for i := range in {
		if math.Abs(real(out[i])-real(in[i])) > 0.5/127+1e-12 {
			t.Fatalf("re error too large at %d", i)
		}
		if math.Abs(imag(out[i])-imag(in[i])) > 0.5/127+1e-12 {
			t.Fatalf("im error too large at %d", i)
		}
	}
	// Zero input passes through.
	z := quantize([]complex128{0, 0}, 8)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero quantize = %v", z)
	}
}

func TestQuantizationCoarserMoreError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := make([]complex128, 100)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	errAt := func(bits int) float64 {
		out := quantize(in, bits)
		var sum float64
		for i := range in {
			sum += cmplx.Abs(out[i] - in[i])
		}
		return sum
	}
	if errAt(4) <= errAt(12) {
		t.Fatal("4-bit quantization not coarser than 12-bit")
	}
}

func TestHumanPresenceChangesCSI(t *testing.T) {
	x, err := NewExtractor(testEnv(t), testGrid(t), Impairments{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	empty := x.Capture(nil)
	blocked := x.Capture([]body.Body{body.Default(geom.Point{X: 3, Y: 4})})
	var diff float64
	for ant := range empty.CSI {
		for k := range empty.CSI[ant] {
			diff += cmplx.Abs(blocked.CSI[ant][k] - empty.CSI[ant][k])
		}
	}
	if diff == 0 {
		t.Fatal("human presence left CSI unchanged")
	}
	// Blocking the LOS must reduce RSSI.
	if blocked.RSSI[1] >= empty.RSSI[1] {
		t.Fatalf("blocking raised RSSI: %v -> %v", empty.RSSI[1], blocked.RSSI[1])
	}
}

func TestCaptureN(t *testing.T) {
	x := newExtractor(t, DefaultImpairments(), 6)
	frames := x.CaptureN(5, nil)
	if len(frames) != 5 {
		t.Fatalf("frames = %d", len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint32(i) {
			t.Fatalf("seq[%d] = %d", i, f.Seq)
		}
	}
}

func TestFrameValidate(t *testing.T) {
	good := &Frame{
		CSI:  [][]complex128{{1, 2}, {3, 4}},
		RSSI: []float64{0, 0},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	bad := []*Frame{
		{},
		{CSI: [][]complex128{{}}},
		{CSI: [][]complex128{{1}, {1, 2}}, RSSI: []float64{0, 0}},
		{CSI: [][]complex128{{1}, {2}}, RSSI: []float64{0}},
	}
	for i, f := range bad {
		if err := f.Validate(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad frame %d err = %v", i, err)
		}
	}
}

func TestFrameClone(t *testing.T) {
	f := &Frame{Seq: 7, CSI: [][]complex128{{1, 2}}, RSSI: []float64{-10}}
	c := f.Clone()
	c.CSI[0][0] = 99
	c.RSSI[0] = 0
	if f.CSI[0][0] == 99 || f.RSSI[0] == 0 {
		t.Fatal("clone aliases original")
	}
	if c.Seq != 7 {
		t.Fatalf("seq = %d", c.Seq)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a := newExtractor(t, DefaultImpairments(), 42)
	b := newExtractor(t, DefaultImpairments(), 42)
	fa := a.Capture(nil)
	fb := b.Capture(nil)
	for ant := range fa.CSI {
		for k := range fa.CSI[ant] {
			if fa.CSI[ant][k] != fb.CSI[ant][k] {
				t.Fatal("same seed produced different CSI")
			}
		}
	}
}
