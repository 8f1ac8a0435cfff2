package eval

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned when a metric is requested over an empty or
// one-sided sample set.
var ErrNoSamples = errors.New("eval: not enough samples")

// Sample is one scored trial with its ground truth.
type Sample struct {
	// Score is the detector's distance statistic.
	Score float64
	// Positive is true when a person was actually present.
	Positive bool
}

// Rates computes the true-positive and false-positive rates of the decision
// rule score > threshold.
func Rates(samples []Sample, threshold float64) (tpr, fpr float64, err error) {
	var tp, fn, fp, tn float64
	for _, s := range samples {
		detected := s.Score > threshold
		switch {
		case s.Positive && detected:
			tp++
		case s.Positive && !detected:
			fn++
		case !s.Positive && detected:
			fp++
		default:
			tn++
		}
	}
	if tp+fn == 0 || fp+tn == 0 {
		return 0, 0, fmt.Errorf("need both positive and negative samples: %w", ErrNoSamples)
	}
	return tp / (tp + fn), fp / (fp + tn), nil
}

// ROCPoint is one operating point of the receiver operating characteristic.
type ROCPoint struct {
	Threshold float64
	TPR       float64
	FPR       float64
}

// ROC sweeps the threshold over every distinct score (plus sentinels) and
// returns the operating points sorted by increasing FPR.
func ROC(samples []Sample) ([]ROCPoint, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("roc: %w", ErrNoSamples)
	}
	scores := make([]float64, 0, len(samples))
	var havePos, haveNeg bool
	for _, s := range samples {
		scores = append(scores, s.Score)
		if s.Positive {
			havePos = true
		} else {
			haveNeg = true
		}
	}
	if !havePos || !haveNeg {
		return nil, fmt.Errorf("roc needs both classes: %w", ErrNoSamples)
	}
	sort.Float64s(scores)
	// Thresholds: below the min (everything detected), at each distinct
	// score, and nothing detected above the max.
	thresholds := []float64{scores[0] - 1}
	for i, s := range scores {
		if i == 0 || s != scores[i-1] {
			thresholds = append(thresholds, s)
		}
	}
	points := make([]ROCPoint, 0, len(thresholds))
	for _, t := range thresholds {
		tpr, fpr, err := Rates(samples, t)
		if err != nil {
			return nil, err
		}
		points = append(points, ROCPoint{Threshold: t, TPR: tpr, FPR: fpr})
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].FPR != points[j].FPR {
			return points[i].FPR < points[j].FPR
		}
		return points[i].TPR < points[j].TPR
	})
	return points, nil
}

// AUC integrates the ROC curve by the trapezoid rule.
func AUC(points []ROCPoint) (float64, error) {
	if len(points) < 2 {
		return 0, fmt.Errorf("auc: %w", ErrNoSamples)
	}
	var area float64
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		area += dx * (points[i].TPR + points[i-1].TPR) / 2
	}
	return area, nil
}

// BalancedPoint returns the operating point closest to the equal-error
// condition TPR = 1 - FPR — the "balanced detection accuracy" the paper
// quotes (e.g. 92.0% detection at 4.5% false positive). Ties are broken
// towards the higher TPR.
func BalancedPoint(points []ROCPoint) (ROCPoint, error) {
	if len(points) == 0 {
		return ROCPoint{}, fmt.Errorf("balanced point: %w", ErrNoSamples)
	}
	best := points[0]
	bestGap := math.Inf(1)
	for _, p := range points {
		gap := math.Abs(p.TPR - (1 - p.FPR))
		if gap < bestGap || (gap == bestGap && p.TPR > best.TPR) {
			best = p
			bestGap = gap
		}
	}
	return best, nil
}

// DetectionRate returns the fraction of positive samples whose score
// exceeds the threshold.
func DetectionRate(samples []Sample, threshold float64) (float64, error) {
	var tp, pos float64
	for _, s := range samples {
		if !s.Positive {
			continue
		}
		pos++
		if s.Score > threshold {
			tp++
		}
	}
	if pos == 0 {
		return 0, fmt.Errorf("detection rate: %w", ErrNoSamples)
	}
	return tp / pos, nil
}
