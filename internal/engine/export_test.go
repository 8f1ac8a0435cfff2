package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"mlink/internal/adapt"
	"mlink/internal/binio"
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

// FuzzLinkRecord throws mutated ExportLink records at ImportLink and
// ApplyLinkDelta: any input must either be accepted (and the resulting
// state re-export) or fail with a typed error — never panic, never leave
// the engine rejecting subsequent valid imports.
func FuzzLinkRecord(f *testing.F) {
	e, record := exportFixture(f)
	ad := e.byID["fuzz"].adapter.Load()
	delta := ad.AppendDelta(nil)
	f.Add(record)
	f.Add(delta)
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
		// Whatever the mutated inputs did, the engine must still accept the
		// genuine record: decode failures may not corrupt live state.
		if err := e.ImportLink("fuzz", record); err != nil {
			t.Fatalf("valid record rejected after fuzz input: %v", err)
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
