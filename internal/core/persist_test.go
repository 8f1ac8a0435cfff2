package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"mlink/internal/scenario"
)

// calibrateCase builds a real profile (with spectrum and path weights) over
// a link case.
func calibrateCase(t *testing.T, scheme Scheme) (Config, *Profile) {
	t.Helper()
	s, err := scenario.Classroom(31)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
	profile, err := Calibrate(cfg, x.CaptureN(60, nil))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, profile
}

func TestProfileBinaryRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSubcarrier, SchemeSubcarrierPath} {
		_, profile := calibrateCase(t, scheme)
		blob, err := profile.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		back, err := UnmarshalProfile(blob)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(profile.MeanAmp, back.MeanAmp) ||
			!reflect.DeepEqual(profile.MeanRSSdB, back.MeanRSSdB) ||
			!reflect.DeepEqual(profile.PathWeights, back.PathWeights) {
			t.Fatalf("%v: fingerprints did not round-trip", scheme)
		}
		if (profile.StaticSpectrum == nil) != (back.StaticSpectrum == nil) {
			t.Fatalf("%v: spectrum presence changed", scheme)
		}
		if profile.StaticSpectrum != nil && !reflect.DeepEqual(profile.StaticSpectrum, back.StaticSpectrum) {
			t.Fatalf("%v: spectrum did not round-trip", scheme)
		}
		if len(back.Frames) != len(profile.Frames) {
			t.Fatalf("%v: %d frames, want %d", scheme, len(back.Frames), len(profile.Frames))
		}
		for i, f := range profile.Frames {
			if !reflect.DeepEqual(f.CSI, back.Frames[i].CSI) || !reflect.DeepEqual(f.RSSI, back.Frames[i].RSSI) {
				t.Fatalf("%v: frame %d did not round-trip", scheme, i)
			}
		}

		// Truncations and garbage must fail loudly.
		if _, err := UnmarshalProfile(blob[:len(blob)/2]); err == nil {
			t.Fatalf("%v: truncated profile decoded", scheme)
		}
		if _, err := UnmarshalProfile(append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatalf("%v: overlong profile decoded", scheme)
		}
		blob[0] ^= 0xFF
		if _, err := UnmarshalProfile(blob); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%v: bad magic err = %v", scheme, err)
		}
	}
}

func TestLinkProfileBinaryRoundTrip(t *testing.T) {
	cfg, profile := calibrateCase(t, SchemeSubcarrier)
	_ = cfg
	lp, err := NewLinkProfile(profile, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the profile a little so cur != orig and ShiftDB is non-zero.
	ws := &WindowStats{}
	ws.shaped(len(profile.MeanAmp), len(profile.MeanAmp[0]))
	for ant := range ws.MeanAmp {
		for k := range ws.MeanAmp[ant] {
			ws.MeanAmp[ant][k] = profile.MeanAmp[ant][k] * 1.2
			ws.MeanRSSdB[ant][k] = profile.MeanRSSdB[ant][k] + 1.5
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := lp.Refresh(ws); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := lp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalLinkProfile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.alpha != lp.alpha || back.Refreshes() != lp.Refreshes() {
		t.Fatalf("alpha/refreshes: got (%v,%d) want (%v,%d)", back.alpha, back.Refreshes(), lp.alpha, lp.Refreshes())
	}
	if !reflect.DeepEqual(back.Current().MeanRSSdB, lp.Current().MeanRSSdB) ||
		!reflect.DeepEqual(back.Original().MeanRSSdB, lp.Original().MeanRSSdB) {
		t.Fatal("fingerprints did not round-trip")
	}
	if math.Abs(back.ShiftDB()-lp.ShiftDB()) > 1e-12 {
		t.Fatalf("ShiftDB %v != %v after round trip", back.ShiftDB(), lp.ShiftDB())
	}
	if lp.ShiftDB() == 0 {
		t.Fatal("test walked nothing — ShiftDB should be non-zero")
	}
	// The restored current profile must carry the original's aux data by
	// reference, exactly as Refresh maintains it.
	if back.Current().Frames == nil {
		t.Fatal("restored current profile lost the calibration frames")
	}
}

func TestDriftMonitorStateRoundTrip(t *testing.T) {
	cfg := DriftConfig{Window: 8}
	ref := []float64{1, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1}
	m, err := NewDriftMonitor(cfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{1, 1.2, 0.9, 1.4, 1.1, 0.95, 1.3, 1, 1.15, 1.05, 0.9}
	for _, s := range scores {
		m.Observe(s)
	}

	var st DriftMonitorState
	m.StateInto(&st)
	back, err := RestoreDriftMonitor(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	// Both monitors must classify every future score identically.
	future := []float64{1.2, 5, 5.2, 5.1, 5.3, 5.2, 1.0, 0.9}
	for i, s := range future {
		m.Observe(s)
		back.Observe(s)
		a, b := m.Snapshot(), back.Snapshot()
		if a.State != b.State || math.Abs(a.Z-b.Z) > 1e-12 || a.JumpExceeded != b.JumpExceeded {
			t.Fatalf("future score %d diverged:\n orig %+v\n rest %+v", i, a, b)
		}
	}

	if _, err := RestoreDriftMonitor(cfg, DriftMonitorState{RefStd: -1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative σ₀ err = %v", err)
	}
	if _, err := RestoreDriftMonitor(cfg, DriftMonitorState{RefMean: 1, RefStd: 1, Scores: []float64{1}, Jumps: nil}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("mismatched rings err = %v", err)
	}
}

func TestDriftMonitorReset(t *testing.T) {
	m, err := NewDriftMonitor(DriftConfig{Window: 6, CriticalPersist: 2}, []float64{1, 1.1, 0.9, 1.05})
	if err != nil {
		t.Fatal(err)
	}
	// Latch critical: a big jump plus a sustained excursion.
	for _, s := range []float64{1, 1, 50, 51, 50, 52} {
		m.Observe(s)
	}
	if m.Snapshot().State != DriftCritical {
		t.Fatalf("setup failed to latch: %+v", m.Snapshot())
	}
	m.Reset()
	if st := m.Snapshot(); st.State != DriftUnknown {
		t.Fatalf("reset state = %v", st.State)
	}
	// The reference survives a reset; the ring is empty so a few quiet
	// scores bring the monitor back healthy with no memory of the latch.
	for _, s := range []float64{1, 1.05, 0.95, 1.1} {
		m.Observe(s)
	}
	if st := m.Snapshot(); st.State != DriftHealthy || st.JumpExceeded {
		t.Fatalf("post-reset state = %+v", st)
	}
}

func TestLinkProfileAdopt(t *testing.T) {
	_, profile := calibrateCase(t, SchemeSubcarrier)
	lp, err := NewLinkProfile(profile, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ws := &WindowStats{}
	ws.shaped(len(profile.MeanAmp), len(profile.MeanAmp[0]))
	for ant := range ws.MeanAmp {
		for k := range ws.MeanAmp[ant] {
			ws.MeanAmp[ant][k] = 42
			ws.MeanRSSdB[ant][k] = -10
		}
	}
	next, err := lp.Adopt(ws)
	if err != nil {
		t.Fatal(err)
	}
	if next.MeanAmp[0][0] != 42 || next.MeanRSSdB[0][0] != -10 {
		t.Fatalf("adopt kept EWMA memory: %v / %v", next.MeanAmp[0][0], next.MeanRSSdB[0][0])
	}
	if len(next.Frames) != len(profile.Frames) || len(next.Frames) == 0 || next.Frames[0] != profile.Frames[0] {
		t.Fatal("adopt dropped the aux fields")
	}
	if lp.Refreshes() != 1 {
		t.Fatalf("adopt counted %d refreshes", lp.Refreshes())
	}
	ws.MeanAmp[0][0] = math.NaN()
	if _, err := lp.Adopt(ws); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN adopt err = %v", err)
	}
}
