package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current code")

const quickGolden = "testdata/quick.golden"

// TestQuickGolden renders every experiment at seed 1 and quick scale, exactly
// as `mlink-exp -run all -scale quick` prints it, and compares the output
// byte for byte with testdata/quick.golden. A refactor of the detector, the
// angular spectra or the simulators must leave the file unchanged;
// regenerate it with -update only for an intended change of the numbers.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse x*y+z into an FMA on %s, which moves the last bits", runtime.GOARCH)
	}
	charCache, campaignCache = nil, nil
	var got bytes.Buffer
	if err := render(&got, order, 1, false); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/mlink-exp -run TestQuickGolden -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", quickGolden, i+1, g, w)
		}
	}
}
