package core

import (
	"errors"
	"testing"

	"mlink/internal/binio"
	"mlink/internal/scenario"
)

// fuzzProfileSeeds builds real serialized profiles — a calibrated
// subcarrier Profile blob, a LinkProfile blob with refresh history, and a
// path-scheme profile as a record of every version (v1 carrying
// calibration frames, v2 the static spectrum and weights too, v3 the
// partials alone) — so the fuzzer starts from the structures it must not be
// panicked by. It also returns the two fixed configs the decoders run under.
func fuzzProfileSeeds(f *testing.F) (cfgs []Config, profile, linkProfile []byte, path map[string][]byte) {
	f.Helper()
	s, err := scenario.Classroom(31)
	if err != nil {
		f.Fatal(err)
	}
	x, err := s.NewExtractor(1)
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultConfig(s.Grid, SchemeSubcarrier, s.Env.RX.Offsets())
	pathCfg := DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets())
	cal := x.CaptureN(60, nil)
	p, err := Calibrate(cfg, cal)
	if err != nil {
		f.Fatal(err)
	}
	profile, err = p.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	lp, err := NewLinkProfile(p, 0.05)
	if err != nil {
		f.Fatal(err)
	}
	det, err := NewDetector(cfg, p)
	if err != nil {
		f.Fatal(err)
	}
	var ws WindowStats
	if err := det.MeasureWindow(&ws, x.CaptureN(25, nil), NewScratch()); err != nil {
		f.Fatal(err)
	}
	if _, err := lp.Refresh(&ws); err != nil {
		f.Fatal(err)
	}
	linkProfile, err = lp.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	// Four frames keep the v1 seed small; its partials are those frames'.
	pp, err := Calibrate(pathCfg, cal[:4])
	if err != nil {
		f.Fatal(err)
	}
	return []Config{cfg, pathCfg}, profile, linkProfile, profileRecords(f, pathCfg, pp, cal[:4])
}

// FuzzProfileRecord throws truncated, bit-flipped and length-inflated
// variants of real profile records, of every record version, at the profile
// decoders under a fixed subcarrier and a fixed path config: they must
// return typed errors (ErrBadInput-wrapping or binio.ErrShort) and never
// panic, and an accepted blob must re-serialize.
func FuzzProfileRecord(f *testing.F) {
	cfgs, profile, linkProfile, path := fuzzProfileSeeds(f)
	f.Add(profile)
	f.Add(linkProfile)
	f.Add(profile[:len(profile)/2])
	f.Add(linkProfile[:len(linkProfile)-7])
	for _, v := range []string{"v1", "v2", "v3"} {
		f.Add(path[v])
		f.Add(path[v][:len(path[v])-7])
	}
	flipped := append([]byte(nil), linkProfile...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Length-inflated fingerprint: a grid header claiming 65535×65535.
	inflated := append([]byte(nil), profile[:10]...)
	inflated = append(inflated, 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(inflated)
	f.Add([]byte{})

	check := func(t *testing.T, err error) {
		if err != nil && !errors.Is(err, ErrBadInput) && !errors.Is(err, binio.ErrShort) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range cfgs {
			p, err := UnmarshalProfile(cfg, data)
			check(t, err)
			if err == nil {
				if _, err := p.AppendBinary(nil); err != nil {
					t.Fatalf("accepted profile does not re-serialize: %v", err)
				}
			}
			lp, err := UnmarshalLinkProfile(cfg, data)
			check(t, err)
			if err == nil {
				if _, err := lp.AppendBinary(nil); err != nil {
					t.Fatalf("accepted link profile does not re-serialize: %v", err)
				}
			}
		}
		// The delta-side adapted-state reader shares the hostile-input
		// guarantees: no panic, typed errors only.
		r := binio.NewReader(data)
		if _, err := ReadAdaptedState(r); err != nil {
			check(t, err)
		}
	})
}
