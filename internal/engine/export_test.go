package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"mlink/internal/adapt"
	"mlink/internal/binio"
	"mlink/internal/channel"
	"mlink/internal/core"
)

// exportFixture builds a calibrated adaptive single-link engine and returns
// it with the link's exported record.
func exportFixture(t testing.TB) (*Engine, []byte) {
	t.Helper()
	pol := adapt.Policy{}
	e := New(Config{Workers: 1, WindowSize: 25, Adaptation: &pol})
	_, cfg, src := buildLink(t, 2, 7)
	if err := e.AddLink("fuzz", cfg, src); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 150); err != nil {
		t.Fatal(err)
	}
	record, err := e.ExportLink("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	return e, record
}

func TestExportImportErrorPaths(t *testing.T) {
	e, record := exportFixture(t)

	t.Run("unknown link", func(t *testing.T) {
		if _, err := e.ExportLink("nope"); !errors.Is(err, ErrUnknownLink) {
			t.Errorf("ExportLink: err = %v, want ErrUnknownLink", err)
		}
		if err := e.ImportLink("nope", record); !errors.Is(err, ErrUnknownLink) {
			t.Errorf("ImportLink: err = %v, want ErrUnknownLink", err)
		}
		if err := e.ApplyLinkDelta("nope", nil); !errors.Is(err, ErrUnknownLink) {
			t.Errorf("ApplyLinkDelta: err = %v, want ErrUnknownLink", err)
		}
	})

	t.Run("not calibrated", func(t *testing.T) {
		e2 := New(Config{Workers: 1, WindowSize: 25})
		_, cfg, src := buildLink(t, 2, 7)
		if err := e2.AddLink("bare", cfg, src); err != nil {
			t.Fatal(err)
		}
		if _, err := e2.ExportLink("bare"); !errors.Is(err, ErrNotCalibrated) {
			t.Errorf("ExportLink: err = %v, want ErrNotCalibrated", err)
		}
		if err := e2.ApplyLinkDelta("bare", nil); !errors.Is(err, ErrNotCalibrated) {
			t.Errorf("ApplyLinkDelta: err = %v, want ErrNotCalibrated", err)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		skewed := append([]byte(nil), record...)
		binary.BigEndian.PutUint16(skewed[4:], linkRecordVersion+1)
		if err := e.ImportLink("fuzz", skewed); !errors.Is(err, ErrBadRecord) {
			t.Errorf("err = %v, want ErrBadRecord", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		skewed := append([]byte(nil), record...)
		skewed[0] ^= 0xFF
		if err := e.ImportLink("fuzz", skewed); !errors.Is(err, ErrBadRecord) {
			t.Errorf("err = %v, want ErrBadRecord", err)
		}
	})

	t.Run("id mismatch", func(t *testing.T) {
		// The record names "fuzz"; importing it onto another registered link
		// must be refused.
		_, cfg, src := buildLink(t, 3, 5)
		if err := e.AddLink("other", cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := e.ImportLink("other", record); !errors.Is(err, ErrBadRecord) {
			t.Errorf("err = %v, want ErrBadRecord", err)
		}
	})

	t.Run("short record", func(t *testing.T) {
		for _, n := range []int{0, 3, 6, 10, len(record) / 2, len(record) - 1} {
			err := e.ImportLink("fuzz", record[:n])
			if err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
			if !errors.Is(err, ErrBadRecord) && !errors.Is(err, core.ErrBadInput) && !errors.Is(err, binio.ErrShort) {
				t.Errorf("truncation to %d: untyped err %v", n, err)
			}
		}
	})

	t.Run("adaptive record without policy", func(t *testing.T) {
		e2 := New(Config{Workers: 1, WindowSize: 25})
		_, cfg, src := buildLink(t, 2, 7)
		if err := e2.AddLink("fuzz", cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := e2.ImportLink("fuzz", record); !errors.Is(err, ErrNotAdaptive) {
			t.Errorf("err = %v, want ErrNotAdaptive", err)
		}
	})

	t.Run("frozen record with policy", func(t *testing.T) {
		if err := e.ImportLink("fuzz", frozenRecords(t)["v3"]); !errors.Is(err, core.ErrConfigMismatch) {
			t.Errorf("err = %v, want core.ErrConfigMismatch", err)
		}
	})

	t.Run("delta on frozen link", func(t *testing.T) {
		e2 := New(Config{Workers: 1, WindowSize: 25})
		_, cfg, src := buildLink(t, 2, 7)
		if err := e2.AddLink("frozen", cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := e2.Calibrate(context.Background(), 150); err != nil {
			t.Fatal(err)
		}
		if err := e2.ApplyLinkDelta("frozen", nil); !errors.Is(err, ErrNotAdaptive) {
			t.Errorf("err = %v, want ErrNotAdaptive", err)
		}
	})

	t.Run("corrupt delta leaves state intact", func(t *testing.T) {
		before, err := e.ExportLink("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{nil, {1, 2, 3}, record[:16]} {
			if err := e.ApplyLinkDelta("fuzz", bad); err == nil {
				t.Fatalf("corrupt delta %v accepted", bad)
			}
		}
		after, err := e.ExportLink("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Error("failed delta application mutated the link")
		}
	})
}

// TestExportRejectedWhileRunning pins the quiescence contract ExportLink,
// ImportLink and ApplyLinkDelta share.
func TestExportRejectedWhileRunning(t *testing.T) {
	e, record := exportFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	done := make(chan error, 1)
	e.cfg.OnDecision = func(string, core.Decision) {
		select {
		case <-started:
		default:
			close(started)
		}
	}
	go func() { done <- e.Run(ctx, 0) }()
	<-started
	if _, err := e.ExportLink("fuzz"); !errors.Is(err, ErrRunning) {
		t.Errorf("ExportLink: err = %v, want ErrRunning", err)
	}
	if err := e.ImportLink("fuzz", record); !errors.Is(err, ErrRunning) {
		t.Errorf("ImportLink: err = %v, want ErrRunning", err)
	}
	if err := e.ApplyLinkDelta("fuzz", nil); !errors.Is(err, ErrRunning) {
		t.Errorf("ApplyLinkDelta: err = %v, want ErrRunning", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// frozenRecords exports the fixture link frozen and returns its record with
// the profile written in every profile record version: v3 as this build
// writes it, and v2 and v1 as earlier builds did for a subcarrier link (the
// v3 fingerprints, no static spectrum, empty path weights; v1 with an empty
// calibration frame list, which a subcarrier link never read).
func frozenRecords(t testing.TB) map[string][]byte {
	t.Helper()
	e := New(Config{Workers: 1, WindowSize: 25})
	_, cfg, src := buildLink(t, 2, 7)
	if err := e.AddLink("fuzz", cfg, src); err != nil {
		t.Fatal(err)
	}
	if err := e.Calibrate(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	l := e.byID["fuzz"]
	profile, err := l.det.Profile().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A subcarrier v3 profile ends in its partials flag, false.
	head := append([]byte(nil), profile[:len(profile)-1]...)
	legacy := func(version uint16, tail []byte) []byte {
		p := append(append([]byte(nil), head...), tail...)
		binary.BigEndian.PutUint16(p[4:], version)
		return p
	}
	noSpectrum := binio.AppendU32([]byte{0}, 0)
	out := map[string][]byte{}
	for v, p := range map[string][]byte{
		"v1": legacy(1, binio.AppendU32(noSpectrum, 0)),
		"v2": legacy(2, append(noSpectrum, 0)),
		"v3": profile,
	} {
		rec := binio.AppendU32(nil, linkRecordMagic)
		rec = binio.AppendU16(rec, linkRecordVersion)
		rec = binio.AppendString(rec, "fuzz")
		rec = binio.AppendF64(rec, l.meanMu)
		rec = binio.AppendBool(rec, false)
		rec = binio.AppendF64(rec, l.det.Threshold())
		out[v] = binio.AppendBytes(rec, p)
	}
	return out
}

// TestImportLinkProfileVersions imports a frozen link record holding each
// profile record version and checks the link re-exports the current record.
func TestImportLinkProfileVersions(t *testing.T) {
	recs := frozenRecords(t)
	e := New(Config{Workers: 1, WindowSize: 25})
	_, cfg, src := buildLink(t, 2, 7)
	if err := e.AddLink("fuzz", cfg, src); err != nil {
		t.Fatal(err)
	}
	for v, rec := range recs {
		if err := e.ImportLink("fuzz", rec); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		back, err := e.ExportLink("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, recs["v3"]) {
			t.Errorf("%s: imported link re-exports a different record", v)
		}
	}
}

// TestImportLinkRejectsMismatchedConfig imports records onto links whose
// scoring config they do not fit — another subcarrier grid, another
// scheme, another array — frozen and adaptive. Each must fail at import
// with core.ErrBadSnapshot, rather than import cleanly and then fail every
// window, and leave the link uncalibrated.
func TestImportLinkRejectsMismatchedConfig(t *testing.T) {
	_, sub, _ := buildLink(t, 2, 7)
	path := sub
	path.Scheme = core.SchemeSubcarrierPath
	record := func(cfg core.Config, adaptive bool) []byte {
		var pol *adapt.Policy
		if adaptive {
			pol = &adapt.Policy{}
		}
		e := New(Config{Workers: 1, WindowSize: 25, Adaptation: pol})
		_, _, src := buildLink(t, 2, 7)
		if err := e.AddLink("x", cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := e.Calibrate(context.Background(), 60); err != nil {
			t.Fatal(err)
		}
		rec, err := e.ExportLink("x")
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	narrow := sub
	narrow.Grid = &channel.Grid{Center: sub.Grid.Center, Indices: sub.Grid.Indices[:20], Spacing: sub.Grid.Spacing}
	pair := path
	pair.ArrayOffsets = sub.ArrayOffsets[:2]
	for name, tc := range map[string]struct {
		cfg      core.Config
		rec      []byte
		adaptive bool
	}{
		"grid":                     {narrow, record(sub, false), false},
		"scheme needs partials":    {path, record(sub, false), false},
		"scheme reads no partials": {sub, record(path, false), false},
		"array":                    {pair, record(path, false), false},
		"adaptive scheme":          {path, record(sub, true), true},
		"adaptive grid":            {narrow, record(sub, true), true},
	} {
		var pol *adapt.Policy
		if tc.adaptive {
			pol = &adapt.Policy{}
		}
		e := New(Config{Workers: 1, WindowSize: 25, Adaptation: pol})
		_, _, src := buildLink(t, 2, 7)
		if err := e.AddLink("x", tc.cfg, src); err != nil {
			t.Fatal(err)
		}
		if err := e.ImportLink("x", tc.rec); !errors.Is(err, core.ErrConfigMismatch) {
			t.Errorf("%s: err = %v, want core.ErrConfigMismatch", name, err)
		}
		if _, err := e.ExportLink("x"); !errors.Is(err, ErrNotCalibrated) {
			t.Errorf("%s: rejected import left the link calibrated (export err = %v)", name, err)
		}
	}
}

// FuzzLinkRecord throws mutated ExportLink records at ImportLink and
// ApplyLinkDelta: any input must either be accepted (and the resulting
// state re-export) or fail with a typed error — never panic, never leave
// the engine rejecting subsequent valid imports. The seeds hold an adaptive
// record and a frozen record of every profile record version; each input
// goes to an adaptive and a frozen engine, since each refuses the other's
// records.
func FuzzLinkRecord(f *testing.F) {
	e, record := exportFixture(f)
	fe := New(Config{Workers: 1, WindowSize: 25})
	_, cfg, src := buildLink(f, 2, 7)
	if err := fe.AddLink("fuzz", cfg, src); err != nil {
		f.Fatal(err)
	}
	ad := e.byID["fuzz"].adapter.Load()
	delta := ad.AppendDelta(nil)
	f.Add(record)
	f.Add(delta)
	frozen := frozenRecords(f)
	for _, v := range []string{"v1", "v2", "v3"} {
		f.Add(frozen[v])
	}
	f.Add(record[:len(record)-9])
	f.Add(delta[:len(delta)/2])
	flipped := append([]byte(nil), record...)
	flipped[20] ^= 0x10
	f.Add(flipped)

	typed := func(t *testing.T, err error) {
		if err != nil && !errors.Is(err, ErrBadRecord) && !errors.Is(err, core.ErrBadInput) &&
			!errors.Is(err, binio.ErrShort) && !errors.Is(err, ErrNotAdaptive) {
			t.Fatalf("untyped error: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typed(t, e.ImportLink("fuzz", data))
		typed(t, e.ApplyLinkDelta("fuzz", data))
		typed(t, fe.ImportLink("fuzz", data))
		// Whatever the mutated inputs did, the engines must still accept
		// the genuine records: decode failures may not corrupt live state.
		if err := e.ImportLink("fuzz", record); err != nil {
			t.Fatalf("valid record rejected after fuzz input: %v", err)
		}
		if err := fe.ImportLink("fuzz", frozen["v3"]); err != nil {
			t.Fatalf("valid frozen record rejected after fuzz input: %v", err)
		}
	})
}

// TestCalibrateMissingSkipsCalibrated: CalibrateMissing leaves an imported
// link's state and source untouched and builds the link with no detector to
// the same record Calibrate builds from the same frames; with nothing
// missing it draws no frame, and on an empty engine it is a no-op where
// Calibrate reports ErrNoLinks.
func TestCalibrateMissingSkipsCalibrated(t *testing.T) {
	ctx := context.Background()
	build := func() *Engine {
		e := New(Config{Workers: 2, WindowSize: 25})
		for i, id := range []string{"a", "b"} {
			_, cfg, src := buildLink(t, i+2, int64(7+i))
			if err := e.AddLink(id, cfg, src); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	ref := build()
	if err := ref.Calibrate(ctx, 150); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, id := range ref.Links() {
		rec, err := ref.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = rec
	}

	e := build()
	if err := e.ImportLink("a", want["a"]); err != nil {
		t.Fatal(err)
	}
	if err := e.CalibrateMissing(ctx, 150); err != nil {
		t.Fatal(err)
	}
	for id, rec := range want {
		got, err := e.ExportLink(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rec) {
			t.Errorf("link %s: record differs from a plain Calibrate's", id)
		}
	}
	if seen := e.Metrics().FramesSeen; seen != 300 {
		t.Errorf("drew %d frames, want 300 (link b's profile and held-out frames only)", seen)
	}
	if err := e.CalibrateMissing(ctx, 150); err != nil {
		t.Fatal(err)
	}
	if seen := e.Metrics().FramesSeen; seen != 300 {
		t.Errorf("CalibrateMissing with nothing missing drew %d frames", seen-300)
	}

	if err := New(Config{}).CalibrateMissing(ctx, 150); err != nil {
		t.Errorf("CalibrateMissing on an empty engine: %v", err)
	}
	if err := New(Config{}).Calibrate(ctx, 150); !errors.Is(err, ErrNoLinks) {
		t.Errorf("Calibrate on an empty engine: err = %v, want ErrNoLinks", err)
	}
}
