package mlink

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_decisions.json from the current code")

const goldenPath = "testdata/golden_decisions.json"

// goldenTrace is one link's decision history as float64 bit patterns (hex),
// so any change in the last bit of a score, threshold or mean μ shows.
type goldenTrace struct {
	MeanMu    string   `json:"mean_mu,omitempty"`
	Score     []string `json:"score"`
	Threshold []string `json:"threshold"`
}

func goldenBits(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }

func goldenFloat(s string) float64 {
	b, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(b)
}

// TestGoldenDecisions pins the detector's decisions bit for bit: every
// (link, window) score and threshold, and each engine link's mean μ, through
// the facade Engine (every scheme on two link cases, frozen links and
// adaptive gain-walk links) and through an adaptive System.DetectWindow.
// Refactors of the scoring, refresh or calibration paths must leave the
// file unchanged; regenerate it with -update only for an intended change of
// the numbers.
func TestGoldenDecisions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; Go may fuse x*y+z into an FMA on %s, which moves the last bits", runtime.GOARCH)
	}
	got := map[string]*goldenTrace{}
	goldenEngine(t, got, false)
	goldenEngine(t, got, true)
	goldenSystem(t, got)

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenDecisions -update . to create it)", err)
	}
	var want map[string]*goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, g := want[k], got[k]
		if g == nil {
			t.Errorf("%s: missing from this run", k)
			continue
		}
		if g.MeanMu != w.MeanMu {
			t.Errorf("%s: mean μ %v, golden %v", k, goldenFloat(g.MeanMu), goldenFloat(w.MeanMu))
		}
		if len(g.Score) != len(w.Score) {
			t.Errorf("%s: %d windows, golden %d", k, len(g.Score), len(w.Score))
			continue
		}
		for i := range w.Score {
			if g.Score[i] != w.Score[i] || g.Threshold[i] != w.Threshold[i] {
				t.Errorf("%s window %d: score %v threshold %v, golden %v %v", k, i,
					goldenFloat(g.Score[i]), goldenFloat(g.Threshold[i]),
					goldenFloat(w.Score[i]), goldenFloat(w.Threshold[i]))
			}
		}
	}
	for k := range got {
		if want[k] == nil {
			t.Errorf("%s: not in the golden file", k)
		}
	}
}

// goldenEngine runs one facade engine over two links per scheme — frozen
// links on the plain capture path, or adaptive links on a gain-walk drift
// stream — and records every decision. One link per engine
// has a person standing on it after calibration.
func goldenEngine(t *testing.T, got map[string]*goldenTrace, adaptive bool) {
	t.Helper()
	arm := "frozen"
	if adaptive {
		arm = "adaptive"
	}
	var mu sync.Mutex
	eng := NewEngine(EngineConfig{
		Workers:    2,
		WindowSize: 25,
		OnDecision: func(id string, d Decision) {
			mu.Lock()
			tr := got[id]
			tr.Score = append(tr.Score, goldenBits(d.Score))
			tr.Threshold = append(tr.Threshold, goldenBits(d.Threshold))
			mu.Unlock()
		},
	})
	if adaptive {
		if err := eng.EnableAdaptation(); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		for range 2 {
			linkCase, seed := 1+n%5, int64(1+n)
			sys, err := NewLinkCaseSystem(linkCase, scheme, seed)
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("engine/%s/%s/case%d-seed%d", arm, scheme, linkCase, seed)
			got[id] = &goldenTrace{}
			var people []*Person
			if n == 2 {
				mid := sys.Scenario.LinkMidpoint()
				people = []*Person{{X: mid.X, Y: mid.Y}}
			}
			if adaptive {
				err = eng.AddDriftLink(id, sys, GainWalkDrift(12), people...)
			} else {
				err = eng.AddLink(id, sys, people...)
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := eng.Calibrate(100); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(t.Context(), 16); err != nil {
		t.Fatal(err)
	}
	refreshed := 0
	for _, lm := range eng.Metrics().PerLink {
		got[lm.ID].MeanMu = goldenBits(lm.MeanMu)
		if lm.Health.Refreshes > 0 {
			refreshed++
		}
	}
	if adaptive && refreshed == 0 {
		t.Fatal("no adaptive engine link refreshed; the arm would not cover the refresh path")
	}
}

// goldenSystem records an adaptive single-link System through DetectWindow:
// empty windows (which refresh the profile) and then occupied ones.
func goldenSystem(t *testing.T, got map[string]*goldenTrace) {
	t.Helper()
	for _, scheme := range []Scheme{SchemeBaseline, SchemeSubcarrier, SchemeSubcarrierPath} {
		sys, err := NewClassroomSystem(scheme, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.EnableAdaptation(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Calibrate(100); err != nil {
			t.Fatal(err)
		}
		tr := &goldenTrace{}
		got[fmt.Sprintf("system/adaptive/%s", scheme)] = tr
		for w := 0; w < 14; w++ {
			var people []*Person
			if w >= 10 {
				people = []*Person{{X: 3, Y: 4}}
			}
			d, err := sys.DetectWindow(sys.CaptureWindow(25, people...))
			if err != nil {
				t.Fatal(err)
			}
			tr.Score = append(tr.Score, goldenBits(d.Score))
			tr.Threshold = append(tr.Threshold, goldenBits(d.Threshold))
		}
		if sys.Health().Refreshes == 0 {
			t.Fatalf("%s: the adaptive system never refreshed; the arm would not cover the refresh path", scheme)
		}
	}
}
