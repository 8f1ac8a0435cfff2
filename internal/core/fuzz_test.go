package core

import (
	"errors"
	"testing"

	"mlink/internal/binio"
	"mlink/internal/scenario"
)

// fuzzProfileSeeds builds real serialized profiles — a calibrated
// subcarrier Profile blob, a LinkProfile blob with refresh history, a
// path-scheme Profile blob carrying partials and a version 1 path record
// carrying the calibration frames — so the fuzzer starts from the
// structures it must not be panicked by.
func fuzzProfileSeeds(f *testing.F) (profile, linkProfile, pathProfile, v1 []byte) {
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
	pp, err := Calibrate(DefaultConfig(s.Grid, SchemeSubcarrierPath, s.Env.RX.Offsets()), cal)
	if err != nil {
		f.Fatal(err)
	}
	pathProfile, err = pp.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	return profile, linkProfile, pathProfile, appendProfileV1(nil, pp, cal[:4])
}

// FuzzProfileRecord throws truncated, bit-flipped and length-inflated
// variants of real profile records at the profile decoders: they must
// return typed errors (ErrBadInput-wrapping or binio.ErrShort) and never
// panic, and an accepted blob must re-serialize.
func FuzzProfileRecord(f *testing.F) {
	profile, linkProfile, pathProfile, v1 := fuzzProfileSeeds(f)
	f.Add(profile)
	f.Add(linkProfile)
	f.Add(pathProfile)
	f.Add(v1)
	f.Add(profile[:len(profile)/2])
	f.Add(linkProfile[:len(linkProfile)-7])
	f.Add(pathProfile[:len(pathProfile)-7])
	f.Add(v1[:len(v1)-7])
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
		p, err := UnmarshalProfile(data)
		check(t, err)
		if err == nil {
			if _, err := p.AppendBinary(nil); err != nil {
				t.Fatalf("accepted profile does not re-serialize: %v", err)
			}
		}
		lp, err := UnmarshalLinkProfile(data)
		check(t, err)
		if err == nil {
			if _, err := lp.AppendBinary(nil); err != nil {
				t.Fatalf("accepted link profile does not re-serialize: %v", err)
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
