package eval

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestRates(t *testing.T) {
	samples := []Sample{
		{Score: 0.9, Positive: true},
		{Score: 0.2, Positive: true},
		{Score: 0.8, Positive: false},
		{Score: 0.1, Positive: false},
	}
	tpr, fpr, err := Rates(samples, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 0.5 || fpr != 0.5 {
		t.Fatalf("tpr=%v fpr=%v", tpr, fpr)
	}
	tpr, fpr, err = Rates(samples, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if tpr != 0.5 || fpr != 0 {
		t.Fatalf("tpr=%v fpr=%v", tpr, fpr)
	}
}

func TestRatesOneSided(t *testing.T) {
	onlyPos := []Sample{{Score: 1, Positive: true}}
	if _, _, err := Rates(onlyPos, 0.5); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("one-sided err = %v", err)
	}
	onlyNeg := []Sample{{Score: 1, Positive: false}}
	if _, _, err := Rates(onlyNeg, 0.5); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("one-sided err = %v", err)
	}
}

func TestROCPerfectSeparation(t *testing.T) {
	var samples []Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{Score: 10 + float64(i), Positive: true})
		samples = append(samples, Sample{Score: float64(i) * 0.1, Positive: false})
	}
	points, err := ROC(samples)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := AUC(points)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-1) > 1e-9 {
		t.Fatalf("perfect auc = %v", auc)
	}
	bp, err := BalancedPoint(points)
	if err != nil {
		t.Fatal(err)
	}
	if bp.TPR != 1 || bp.FPR != 0 {
		t.Fatalf("balanced point = %+v", bp)
	}
}

func TestROCRandomScoresAUCHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 4000; i++ {
		samples = append(samples, Sample{Score: rng.Float64(), Positive: i%2 == 0})
	}
	points, err := ROC(samples)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := AUC(points)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.05 {
		t.Fatalf("random auc = %v, want ≈0.5", auc)
	}
}

func TestROCMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 500; i++ {
		s := rng.NormFloat64()
		pos := rng.Float64() < 0.5
		if pos {
			s += 1
		}
		samples = append(samples, Sample{Score: s, Positive: pos})
	}
	points, err := ROC(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].FPR < points[i-1].FPR {
			t.Fatalf("fpr not sorted at %d", i)
		}
		if points[i].FPR == points[i-1].FPR && points[i].TPR < points[i-1].TPR {
			t.Fatalf("tpr not sorted within fpr at %d", i)
		}
	}
	// Endpoints: (0-ish, low) to (1, 1).
	last := points[len(points)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("roc does not reach (1,1): %+v", last)
	}
}

func TestROCErrors(t *testing.T) {
	if _, err := ROC(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := ROC([]Sample{{Score: 1, Positive: true}}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("single-class err = %v", err)
	}
	if _, err := AUC(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("auc empty err = %v", err)
	}
	if _, err := BalancedPoint(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("balanced empty err = %v", err)
	}
}

func TestBalancedPointEqualError(t *testing.T) {
	points := []ROCPoint{
		{Threshold: 0, TPR: 1.0, FPR: 1.0},
		{Threshold: 1, TPR: 0.9, FPR: 0.3},
		{Threshold: 2, TPR: 0.7, FPR: 0.28},
		{Threshold: 3, TPR: 0.5, FPR: 0.0},
	}
	bp, err := BalancedPoint(points)
	if err != nil {
		t.Fatal(err)
	}
	// |0.9-(1-0.3)| = 0.2; |0.7-0.72| = 0.02 → threshold 2 wins.
	if bp.Threshold != 2 {
		t.Fatalf("balanced point = %+v", bp)
	}
}

func TestDetectionAndFalsePositiveRate(t *testing.T) {
	samples := []Sample{
		{Score: 0.9, Positive: true},
		{Score: 0.4, Positive: true},
		{Score: 0.6, Positive: false},
		{Score: 0.1, Positive: false},
	}
	dr, err := DetectionRate(samples, 0.5)
	if err != nil || dr != 0.5 {
		t.Fatalf("dr=%v err=%v", dr, err)
	}
	if _, err := DetectionRate([]Sample{{Positive: false}}, 0); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("dr err = %v", err)
	}
}

func TestBetterSeparationHigherAUC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mkSamples := func(sep float64) []Sample {
		var out []Sample
		for i := 0; i < 1000; i++ {
			pos := i%2 == 0
			s := rng.NormFloat64()
			if pos {
				s += sep
			}
			out = append(out, Sample{Score: s, Positive: pos})
		}
		return out
	}
	aucAt := func(sep float64) float64 {
		points, err := ROC(mkSamples(sep))
		if err != nil {
			t.Fatal(err)
		}
		a, err := AUC(points)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if aucAt(2.0) <= aucAt(0.5) {
		t.Fatal("higher separation did not raise AUC")
	}
}
