package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// smoke runs one short workload and parses its result line.
func smoke(t *testing.T, o options) (*result, map[string]jsonMetric) {
	t.Helper()
	res, err := run(context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", o.w.name, err)
	}
	line, err := res.jsonLine()
	if err != nil {
		t.Fatalf("%s: %v", o.w.name, err)
	}
	var out struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("%s: result line: %v", o.w.name, err)
	}
	if out.Attempted < 1 || out.Failed != res.failed || out.Correct != (res.failed == 0) {
		t.Fatalf("%s: envelope %+v disagrees with the result", o.w.name, out)
	}
	return res, out.Metrics
}

func testOptions(t *testing.T, name string) options {
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	// Three seconds keep one scheduling hiccup of the load generator from
	// reaching its lag p99, which would mark the run invalid.
	return options{w: w, seed: 1, seconds: 3, out: t.TempDir(), drop: -1}
}

// TestSmoke runs every workload briefly in both modes: every declared metric
// is printed and reported with its unit, and the seed's inputs fail nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := testOptions(t, w.name)
			o.traced = traced
			res, metrics := smoke(t, o)
			if res.failed != 0 {
				t.Errorf("%s traced=%v: failed_frac %g (%d of %d windows)", w.name, traced, res.failedFrac(), res.failed, res.attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(metrics), len(specs))
			}
			var printed bytes.Buffer
			res.print(&printed)
			for _, s := range append(specs, metricSpec{"failed_frac", "fraction"}) {
				if m, ok := metrics[s.name]; s.name != "failed_frac" && (!ok || m.Unit != s.unit) {
					t.Errorf("%s traced=%v: metric %s reported as %+v, want unit %s", w.name, traced, s.name, m, s.unit)
				}
				if !strings.Contains(printed.String(), s.name) || !strings.Contains(printed.String(), s.unit) {
					t.Errorf("%s traced=%v: %s (%s) missing from the printed report", w.name, traced, s.name, s.unit)
				}
			}
		}
	}
}

// TestFailureAccounting shows that failed_frac sees both kinds of wrong
// output: a decision that differs from the reference, and a frame lost on
// the way in.
func TestFailureAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline")
	}
	clean, _ := smoke(t, testOptions(t, "subcarrier-fleet"))
	if clean.failed != 0 {
		t.Fatalf("clean run: failed %d of %d", clean.failed, clean.attempted)
	}

	o := testOptions(t, "subcarrier-fleet")
	o.corruptRef = true
	corrupt, _ := smoke(t, o)
	if corrupt.failedFrac() <= clean.failedFrac() {
		t.Errorf("corrupted reference entry: failed_frac %g, clean %g", corrupt.failedFrac(), clean.failedFrac())
	}

	o = testOptions(t, "subcarrier-fleet")
	o.drop = warmRounds*windowSize + 3
	dropped, _ := smoke(t, o)
	if dropped.failedFrac() <= clean.failedFrac() {
		t.Errorf("dropped frame: failed_frac %g, clean %g", dropped.failedFrac(), clean.failedFrac())
	}
}
