package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"mlink/internal/binio"
	"mlink/internal/body"
	"mlink/internal/csi"
	"mlink/internal/geom"
	"mlink/internal/music"
	"mlink/internal/scenario"
)

// appendFrame serializes one CSI frame (shape, metadata, RSSI, IQ values)
// in the layout readFrame decodes.
func appendFrame(dst []byte, f *csi.Frame) []byte {
	dst = binio.AppendU32(dst, f.Seq)
	dst = binio.AppendU64(dst, f.TimestampMicros)
	dst = binio.AppendU16(dst, uint16(f.NumAntennas()))
	dst = binio.AppendU16(dst, uint16(f.NumSubcarriers()))
	for _, r := range f.RSSI {
		dst = binio.AppendF64(dst, r)
	}
	for _, row := range f.CSI {
		for _, v := range row {
			dst = binio.AppendF64(dst, real(v))
			dst = binio.AppendF64(dst, imag(v))
		}
	}
	return dst
}

// appendLegacyHead writes the head that the version 1 and 2 profile
// records of earlier builds share: p's fingerprints, then the static
// spectrum and path weights, computed as those builds did, from the static
// covariance of the calibration frames themselves (which differs from the
// partials' in the last bits).
func appendLegacyHead(t testing.TB, dst []byte, cfg Config, p *Profile, frames []*csi.Frame, version uint16) []byte {
	t.Helper()
	dst = binio.AppendU32(dst, profileMagic)
	dst = binio.AppendU16(dst, version)
	dst = appendGrid2(dst, p.MeanAmp)
	dst = appendGrid2(dst, p.MeanRSSdB)
	dst = binio.AppendBool(dst, p.Partials != nil)
	if p.Partials == nil {
		return binio.AppendF64s(dst, nil)
	}
	k, err := NewKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := music.Covariance(frames, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := &music.Spectrum{}
	if err := k.plan.PseudospectrumInto(spec, cov, cfg.NumSignals, nil); err != nil {
		t.Fatal(err)
	}
	w, err := PathWeights(spec, cfg.PathWeight)
	if err != nil {
		t.Fatal(err)
	}
	dst = binio.AppendF64s(dst, spec.AnglesDeg)
	dst = binio.AppendF64s(dst, spec.Power)
	return binio.AppendF64s(dst, w)
}

// appendProfileV1 writes the version 1 profile record earlier builds
// persisted: the legacy head, then the calibration frames themselves.
func appendProfileV1(t testing.TB, dst []byte, cfg Config, p *Profile, frames []*csi.Frame) []byte {
	dst = appendLegacyHead(t, dst, cfg, p, frames, profileVersionV1)
	dst = binio.AppendU32(dst, uint32(len(frames)))
	for _, f := range frames {
		dst = appendFrame(dst, f)
	}
	return dst
}

// appendProfileV2 writes the version 2 profile record earlier builds
// persisted: the legacy head, then the partials as version 3 writes them.
func appendProfileV2(t testing.TB, dst []byte, cfg Config, p *Profile, frames []*csi.Frame) []byte {
	dst = appendLegacyHead(t, dst, cfg, p, frames, 2)
	dst = binio.AppendBool(dst, p.Partials != nil)
	if p.Partials != nil {
		dst = p.Partials.AppendBinary(dst)
	}
	return dst
}

// profileRecords writes p, calibrated from frames under cfg, as a record of
// every version this build decodes.
func profileRecords(t testing.TB, cfg Config, p *Profile, frames []*csi.Frame) map[string][]byte {
	t.Helper()
	v3, err := p.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"v1": appendProfileV1(t, nil, cfg, p, frames),
		"v2": appendProfileV2(t, nil, cfg, p, frames),
		"v3": v3,
	}
}

// appendLinkProfileWith writes lp's record around an arbitrary profile
// record as its original, as a build writing that profile version would.
func appendLinkProfileWith(dst []byte, lp *LinkProfile, orig []byte) []byte {
	dst = binio.AppendU32(dst, linkProfileMagic)
	dst = binio.AppendU16(dst, linkProfileVersion)
	dst = binio.AppendF64(dst, lp.alpha)
	dst = binio.AppendU64(dst, lp.refreshes)
	dst = append(dst, orig...)
	dst = appendGrid2(dst, lp.cur.MeanAmp)
	return appendGrid2(dst, lp.cur.MeanRSSdB)
}

// samePartials compares two partials bit for bit through their wire form
// (dimensions, frame count and every sum's bit pattern).
func samePartials(a, b *music.Partials) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

// recordCase captures link case c's calibration frames and four monitoring
// windows: two empty, one with a person on the link midpoint, one off it.
func recordCase(t *testing.T, c int) (*scenario.Scenario, []*csi.Frame, [][]*csi.Frame) {
	t.Helper()
	s, err := scenario.LinkCase(c, int64(c))
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cal := x.CaptureN(100, nil)
	mid := s.LinkMidpoint()
	windows := [][]*csi.Frame{
		x.CaptureN(25, nil),
		x.CaptureN(25, nil),
		x.CaptureN(25, []body.Body{body.Default(mid)}),
		x.CaptureN(25, []body.Body{body.Default(geom.Point{X: mid.X + 1, Y: mid.Y + 1})}),
	}
	return s, cal, windows
}

// calibrateCase builds a real profile (with partials and path weights for
// the path scheme) over a link case.
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
		cfg, profile := calibrateCase(t, scheme)
		blob, err := profile.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		back, err := UnmarshalProfile(cfg, blob)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !reflect.DeepEqual(profile.MeanAmp, back.MeanAmp) ||
			!reflect.DeepEqual(profile.MeanRSSdB, back.MeanRSSdB) ||
			!reflect.DeepEqual(profile.PathWeights, back.PathWeights) {
			t.Fatalf("%v: fingerprints or path weights did not round-trip", scheme)
		}
		if (profile.Partials != nil) != (scheme == SchemeSubcarrierPath) {
			t.Fatalf("%v: Calibrate stored partials %v", scheme, profile.Partials != nil)
		}
		if !samePartials(profile.Partials, back.Partials) {
			t.Fatalf("%v: partials did not round-trip bit for bit", scheme)
		}

		// Truncations and garbage must fail loudly.
		if _, err := UnmarshalProfile(cfg, blob[:len(blob)/2]); err == nil {
			t.Fatalf("%v: truncated profile decoded", scheme)
		}
		if _, err := UnmarshalProfile(cfg, append(append([]byte(nil), blob...), 0)); err == nil {
			t.Fatalf("%v: overlong profile decoded", scheme)
		}
		blob[0] ^= 0xFF
		if _, err := UnmarshalProfile(cfg, blob); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%v: bad magic err = %v", scheme, err)
		}
	}
}

func TestLinkProfileBinaryRoundTrip(t *testing.T) {
	cfg, profile := calibrateCase(t, SchemeSubcarrierPath)
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
	back, err := UnmarshalLinkProfile(cfg, blob)
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
	// The restored current profile must carry the original's partials by
	// reference, exactly as Refresh maintains it, and they must be the
	// calibrated ones bit for bit.
	if cur := back.Current().Partials; cur == nil || cur != back.Original().Partials {
		t.Fatal("restored current profile does not share the original's partials")
	}
	if !samePartials(back.Original().Partials, profile.Partials) {
		t.Fatal("link profile partials did not round-trip bit for bit")
	}
}

func TestDriftMonitorStateRoundTrip(t *testing.T) {
	ref := []float64{1, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1}
	m, err := NewDriftMonitor(ref)
	if err != nil {
		t.Fatal(err)
	}
	// More scores than the window holds, so the ring has wrapped.
	scores := []float64{1, 1.2, 0.9, 1.4, 1.1, 0.95, 1.3, 1, 1.15, 1.05, 0.9}
	for range 3 {
		for _, s := range scores {
			m.Observe(s)
		}
	}

	var st DriftMonitorState
	m.StateInto(&st)
	back, err := RestoreDriftMonitor(st)
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

	if _, err := RestoreDriftMonitor(DriftMonitorState{RefStd: -1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative σ₀ err = %v", err)
	}
	if _, err := RestoreDriftMonitor(DriftMonitorState{RefMean: 1, RefStd: 1, Scores: []float64{1}, Jumps: nil}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("mismatched rings err = %v", err)
	}
}

func TestDriftMonitorReset(t *testing.T) {
	m, err := NewDriftMonitor([]float64{1, 1.1, 0.9, 1.05})
	if err != nil {
		t.Fatal(err)
	}
	// Latch critical: a big jump plus an excursion sustained for
	// driftCriticalPersist classified windows.
	for range driftMinSamples - 1 {
		m.Observe(1)
	}
	for _, s := range []float64{50, 51, 50, 52} {
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
	for i := range driftMinSamples {
		m.Observe([]float64{1, 1.05, 0.95, 1.1}[i%4])
	}
	if st := m.Snapshot(); st.State != DriftHealthy || st.JumpExceeded {
		t.Fatalf("post-reset state = %+v", st)
	}
}

func TestLinkProfileAdopt(t *testing.T) {
	_, profile := calibrateCase(t, SchemeSubcarrierPath)
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
	if next.Partials == nil || next.Partials != profile.Partials || &next.PathWeights[0] != &profile.PathWeights[0] {
		t.Fatal("adopt dropped the calibration-derived fields")
	}
	if lp.Refreshes() != 1 {
		t.Fatalf("adopt counted %d refreshes", lp.Refreshes())
	}
	ws.MeanAmp[0][0] = math.NaN()
	if _, err := lp.Adopt(ws); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN adopt err = %v", err)
	}
}

// TestProfileRecordsScoreAsCalibrated pins every record version to the
// profile it was written from, for every scheme and link cases 1–5: a
// version 1 record of the calibration frames, a version 2 record with its
// stored spectrum and weights, and a current record all decode to a
// profile whose partials and path weights equal the calibrated ones bit for
// bit and that scores empty and occupied windows bit-identically.
func TestProfileRecordsScoreAsCalibrated(t *testing.T) {
	for c := 1; c <= 5; c++ {
		s, cal, windows := recordCase(t, c)
		for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
			cfg := DefaultConfig(s.Grid, scheme, s.Env.RX.Offsets())
			fresh, err := Calibrate(cfg, cal)
			if err != nil {
				t.Fatal(err)
			}
			k, err := NewKernel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := NewScratch()
			for tag, blob := range profileRecords(t, cfg, fresh, cal) {
				back, err := UnmarshalProfile(cfg, blob)
				if err != nil {
					t.Fatalf("case %d %s %s: %v", c, scheme, tag, err)
				}
				if !samePartials(back.Partials, fresh.Partials) || !reflect.DeepEqual(back.PathWeights, fresh.PathWeights) {
					t.Fatalf("case %d %s %s: partials or path weights differ from the calibrated ones", c, scheme, tag)
				}
				for i, w := range windows {
					want, err := k.Score(fresh, w, sc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := k.Score(back, w, sc)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("case %d %s %s window %d: decoded-profile score %v, calibrated %v",
							c, scheme, tag, i, got, want)
					}
				}
			}
		}
	}
}

// TestProfileRecordSize bounds a full profile record as the engine journals
// it after a 150-packet calibration: a 3 × 30 subcarrier link's record is
// its two fingerprints (about 1.5 KB), and a path link's adds only the
// calibration partials (about 4.3 KB in all). The path record holds nothing
// per steering angle, so its length is the same on the 1° and 0.05° grids.
func TestProfileRecordSize(t *testing.T) {
	s, err := scenario.LinkCase(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		t.Fatal(err)
	}
	cal := x.CaptureN(150, nil)
	if nAnt, nSub := cal[0].NumAntennas(), cal[0].NumSubcarriers(); nAnt != 3 || nSub != 30 {
		t.Fatalf("link case 1 is %d × %d, want 3 × 30", nAnt, nSub)
	}
	sub := DefaultConfig(s.Grid, SchemeSubcarrier, s.Env.RX.Offsets())
	coarse := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	fine := coarse
	fine.SpectrumStepDeg = 0.05
	var pathLens []int
	for _, tc := range []struct {
		cfg   Config
		limit int
	}{{sub, 2_000}, {coarse, 4_400}, {fine, 4_400}} {
		p, err := Calibrate(tc.cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s profile record, %g° grid: %d bytes", tc.cfg.Scheme, tc.cfg.SpectrumStepDeg, len(blob))
		if len(blob) > tc.limit {
			t.Errorf("%s profile record is %d bytes, want ≤ %d", tc.cfg.Scheme, len(blob), tc.limit)
		}
		if tc.cfg.Scheme == SchemeSubcarrierPath {
			pathLens = append(pathLens, len(blob))
		}
	}
	if pathLens[0] != pathLens[1] {
		t.Errorf("path profile record is %d bytes on the 1° grid and %d on the 0.05° grid, want equal", pathLens[0], pathLens[1])
	}
}

// TestProfileRecordRejectsBadPartials corrupts the partials of a current
// path-scheme record: a zero dimension or frame count, a sums count that
// does not match the dimensions, a count beyond the buffer and partials
// shaped unlike the fingerprints must all fail as ErrBadSnapshot, and every
// truncation as ErrBadSnapshot or binio.ErrShort.
func TestProfileRecordRejectsBadPartials(t *testing.T) {
	cfg, profile := calibrateCase(t, SchemeSubcarrierPath)
	blob, err := profile.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The partials close the record: nAnt u16, nSub u16, frames u32, sums
	// count u32, then the sums.
	off := len(blob) - len(profile.Partials.AppendBinary(nil))
	nAnt, nSub := profile.Partials.Shape()
	tri := nAnt * (nAnt + 1) / 2
	type field struct {
		at    int
		bytes []byte
	}
	u16 := func(v uint16) []byte { return binio.AppendU16(nil, v) }
	u32 := func(v uint32) []byte { return binio.AppendU32(nil, v) }
	for name, edits := range map[string][]field{
		"zero antennas":      {{off, u16(0)}},
		"zero subcarriers":   {{off + 2, u16(0)}},
		"zero frames":        {{off + 4, u32(0)}},
		"sums count +1":      {{off + 8, u32(uint32(tri*nSub + 1))}},
		"sums count -1":      {{off + 8, u32(uint32(tri*nSub - 1))}},
		"beyond buffer":      {{off + 2, u16(0xFFFF)}, {off + 8, u32(uint32(tri * 0xFFFF))}},
		"unlike fingerprint": {{off + 2, u16(uint16(nSub - 1))}, {off + 8, u32(uint32(tri * (nSub - 1)))}},
	} {
		bad := append([]byte(nil), blob...)
		for _, e := range edits {
			copy(bad[e.at:], e.bytes)
		}
		if _, err := UnmarshalProfile(cfg, bad); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
	for n := off - 1; n < len(blob); n++ {
		if _, err := UnmarshalProfile(cfg, blob[:n]); !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, binio.ErrShort) {
			t.Fatalf("truncated to %d of %d bytes: err = %v", n, len(blob), err)
		}
	}
}
