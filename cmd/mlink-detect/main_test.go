package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"mlink/internal/csi"
	"mlink/internal/csinet"
	"mlink/internal/scenario"
)

// serveLinkCase streams link case 2's empty room from an unpaced csinet
// server on a loopback port, with the hello csid announces, altered by edit
// when it is not nil. Each connection ends cleanly after perConn frames
// (0: never).
func serveLinkCase(t *testing.T, perConn int, edit func(*csinet.Hello)) string {
	t.Helper()
	s, err := scenario.LinkCase(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int16, s.Grid.Len())
	for i, idx := range s.Grid.Indices {
		indices[i] = int16(idx)
	}
	hello := csinet.Hello{
		CenterFreqHz:   s.Grid.Center,
		NumAntennas:    3,
		NumSubcarriers: uint8(s.Grid.Len()),
		Indices:        indices,
	}
	if edit != nil {
		edit(&hello)
	}
	var (
		mu     sync.Mutex
		stream int64
	)
	srv, err := csinet.NewServer("127.0.0.1:0", hello, func() csinet.Source {
		mu.Lock()
		stream++
		x, err := s.NewExtractor(stream)
		mu.Unlock()
		if err != nil {
			return csinet.SourceFunc(func() (*csi.Frame, error) { return nil, err })
		}
		sent := 0
		return csinet.SourceFunc(func() (*csi.Frame, error) {
			if perConn > 0 && sent == perConn {
				return nil, io.EOF
			}
			sent++
			return x.Capture(nil), nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background()) //nolint:errcheck — ends on Close
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// lines splits out's output and counts the window lines.
func lines(out string) (all []string, windows int) {
	all = strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range all {
		if strings.HasPrefix(l, "window ") {
			windows++
		}
	}
	return all, windows
}

func TestRunMaxWindows(t *testing.T) {
	addr := serveLinkCase(t, 0, nil)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-calibration", "50", "-window", "25", "-max-windows", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	all, windows := lines(out.String())
	if len(all) != 5 || windows != 3 {
		t.Fatalf("want a calibration line, a threshold line and 3 window lines, got:\n%s", out.String())
	}
	if !strings.Contains(all[1], "threshold") {
		t.Fatalf("second line %q is not the threshold line", all[1])
	}
	for i, l := range all[2:] {
		if !strings.HasPrefix(l, "window ") {
			t.Fatalf("line %d = %q, want a window line", i+2, l)
		}
	}
}

func TestRunStreamEnds(t *testing.T) {
	// 50 calibration and 50 held-out packets, two 25-packet windows and 10
	// packets of a third.
	addr := serveLinkCase(t, 2*50+2*25+10, nil)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-scheme", "subcarrier", "-calibration", "50"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	all, windows := lines(out.String())
	if windows != 2 || all[len(all)-1] != "mlink-detect: stream ended" {
		t.Fatalf("want 2 window lines, then the end of the stream, got:\n%s", out.String())
	}
}

// TestRunRejectsUnscorableHello: a stream whose Hello announces no
// antennas, a centre frequency that is not finite, or subcarriers other
// than the grid the detector builds is refused before calibration starts.
func TestRunRejectsUnscorableHello(t *testing.T) {
	for name, edit := range map[string]func(*csinet.Hello){
		"no antennas":       func(h *csinet.Hello) { h.NumAntennas = 0 },
		"NaN centre":        func(h *csinet.Hello) { h.CenterFreqHz = math.NaN() },
		"infinite centre":   func(h *csinet.Hello) { h.CenterFreqHz = math.Inf(1) },
		"fewer subcarriers": func(h *csinet.Hello) { h.NumSubcarriers, h.Indices = 20, h.Indices[:20] },
		"other indices":     func(h *csinet.Hello) { h.Indices[3]++ },
	} {
		addr := serveLinkCase(t, 0, edit)
		var out bytes.Buffer
		err := run([]string{"-addr", addr, "-calibration", "50", "-max-windows", "1"}, &out)
		if err == nil {
			t.Errorf("%s: run accepted the stream:\n%s", name, out.String())
		} else if out.Len() != 0 {
			t.Errorf("%s: run printed before rejecting the stream (%v):\n%s", name, err, out.String())
		}
	}
}
