package sanitize

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mlink/internal/channel"
	"mlink/internal/csi"
	"mlink/internal/dsp"
	"mlink/internal/geom"
	"mlink/internal/propagation"
)

// sanitizeFrame sanitizes one frame through Frames.
func sanitizeFrame(f *csi.Frame, idx []int) (*csi.Frame, error) {
	out, err := Frames([]*csi.Frame{f}, idx)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func buildExtractor(t *testing.T, imp csi.Impairments, seed int64) (*csi.Extractor, []int) {
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
	env, err := propagation.NewEnvironment(room, geom.Point{X: 1, Y: 4}, rx, propagation.DefaultLinkParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := channel.NewIntel5300Grid(channel.CenterFreqChannel11)
	if err != nil {
		t.Fatal(err)
	}
	var rng *rand.Rand
	if imp.NoiseEnabled || imp.MaxSTOSeconds > 0 || imp.AGCJitterDB > 0 || imp.RandomCommonPhase {
		rng = rand.New(rand.NewSource(seed))
	}
	x, err := csi.NewExtractor(env, grid, imp, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	return x, grid.Indices
}

func TestSanitizeRemovesSTOSlope(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 50e-9, RandomCommonPhase: true}, 1)
	f := x.Capture(nil)
	s, err := sanitizeFrame(f, idx)
	if err != nil {
		t.Fatal(err)
	}
	// After sanitization the residual phase across subcarriers must have
	// near-zero linear trend.
	ph := make([]float64, len(idx))
	for k, v := range s.CSI[0] {
		ph[k] = cmplx.Phase(v)
	}
	un := dsp.UnwrapInPlace(ph)
	xs := make([]float64, len(idx))
	for i, v := range idx {
		xs[i] = float64(v)
	}
	fit, err := dsp.FitLinear(xs, un)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope) > 0.02 {
		t.Fatalf("residual slope = %v rad/index, want ≈0", fit.Slope)
	}
}

func TestSanitizePreservesInterAntennaPhase(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 50e-9, RandomCommonPhase: true}, 2)
	f := x.Capture(nil)
	s, err := sanitizeFrame(f, idx)
	if err != nil {
		t.Fatal(err)
	}
	for k := range idx {
		before := cmplx.Phase(f.CSI[2][k] / f.CSI[0][k])
		after := cmplx.Phase(s.CSI[2][k] / s.CSI[0][k])
		if math.Abs(before-after) > 1e-9 {
			t.Fatalf("inter-antenna phase changed at %d: %v -> %v", k, before, after)
		}
	}
}

func TestSanitizePreservesAmplitude(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 30e-9}, 3)
	f := x.Capture(nil)
	s, err := sanitizeFrame(f, idx)
	if err != nil {
		t.Fatal(err)
	}
	for ant := range f.CSI {
		for k := range f.CSI[ant] {
			if math.Abs(cmplx.Abs(s.CSI[ant][k])-cmplx.Abs(f.CSI[ant][k])) > 1e-12 {
				t.Fatalf("amplitude changed at [%d][%d]", ant, k)
			}
		}
	}
}

func TestSanitizeDoesNotMutateInput(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 30e-9}, 4)
	f := x.Capture(nil)
	orig := f.Clone()
	if _, err := sanitizeFrame(f, idx); err != nil {
		t.Fatal(err)
	}
	for ant := range f.CSI {
		for k := range f.CSI[ant] {
			if f.CSI[ant][k] != orig.CSI[ant][k] {
				t.Fatal("input frame mutated")
			}
		}
	}
}

func TestSanitizeIdempotentOnCleanFrame(t *testing.T) {
	// A frame with no STO has almost no trend; sanitizing twice must agree
	// with sanitizing once.
	x, idx := buildExtractor(t, csi.Impairments{}, 5)
	f := x.Capture(nil)
	s1, err := sanitizeFrame(f, idx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sanitizeFrame(s1, idx)
	if err != nil {
		t.Fatal(err)
	}
	for ant := range s1.CSI {
		for k := range s1.CSI[ant] {
			if cmplx.Abs(s1.CSI[ant][k]-s2.CSI[ant][k]) > 1e-9*cmplx.Abs(s1.CSI[ant][k]) {
				t.Fatalf("not idempotent at [%d][%d]", ant, k)
			}
		}
	}
}

func TestSanitizeErrors(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{}, 6)
	f := x.Capture(nil)
	if _, err := sanitizeFrame(f, idx[:5]); err == nil {
		t.Fatal("index length mismatch accepted")
	}
	bad := &csi.Frame{}
	if _, err := sanitizeFrame(bad, idx); err == nil {
		t.Fatal("invalid frame accepted")
	}
}

func TestSanitizeFramesBatch(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 40e-9, RandomCommonPhase: true}, 7)
	frames := x.CaptureN(4, nil)
	out, err := Frames(frames, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("out = %d", len(out))
	}
	// Batch with one bad frame fails with its index in the error.
	frames = append(frames, &csi.Frame{})
	if _, err := Frames(frames, idx); err == nil {
		t.Fatal("bad frame in batch accepted")
	}
}

// TestSanitizeStabilizesAcrossPackets verifies the point of sanitization:
// per-packet phase impairments make raw CSI phases jump packet-to-packet,
// sanitized ones stay put.
func TestSanitizeStabilizesAcrossPackets(t *testing.T) {
	x, idx := buildExtractor(t, csi.Impairments{MaxSTOSeconds: 50e-9, RandomCommonPhase: true}, 8)
	f1 := x.Capture(nil)
	f2 := x.Capture(nil)
	s1, err := sanitizeFrame(f1, idx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sanitizeFrame(f2, idx)
	if err != nil {
		t.Fatal(err)
	}
	var rawJump, cleanJump float64
	for k := range idx {
		rawJump += math.Abs(angleDiff(cmplx.Phase(f1.CSI[0][k]), cmplx.Phase(f2.CSI[0][k])))
		cleanJump += math.Abs(angleDiff(cmplx.Phase(s1.CSI[0][k]), cmplx.Phase(s2.CSI[0][k])))
	}
	if cleanJump >= rawJump {
		t.Fatalf("sanitization did not stabilize phase: %v >= %v", cleanJump, rawJump)
	}
	if cleanJump/float64(len(idx)) > 0.2 {
		t.Fatalf("sanitized phase jump %v rad/subcarrier too large", cleanJump/float64(len(idx)))
	}
}

func angleDiff(a, b float64) float64 {
	d := a - b
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
