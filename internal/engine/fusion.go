package engine

import (
	"errors"
	"fmt"

	"mlink/internal/adapt"
	"mlink/internal/core"
)

// ErrNoDecisions is returned when fusion is attempted before any link has
// scored a window.
var ErrNoDecisions = errors.New("engine: no link decisions yet")

// ErrAllQuarantined is returned by weight-aware fusion when every link's
// vote weight is negligible — the whole fleet is quarantined or otherwise
// written off, so no meaningful site verdict exists. Callers should treat it
// as "inconclusive: recalibrate the site", never as "absent".
var ErrAllQuarantined = errors.New("engine: every link vote is negligible")

// MinFusibleWeight is the weight below which a link's vote is considered
// dead for weighted fusion. Weights this small cannot influence a verdict —
// fusing them anyway would divide two near-zero sums and report the rounding
// noise as a confident site verdict.
const MinFusibleWeight = 1e-6

// LinkDecision pairs a link ID with its latest monitoring decision plus the
// link's current quality weight and adaptation health.
type LinkDecision struct {
	LinkID string
	core.Decision
	// Weight is the link's fusion vote weight: its characterized mean
	// multipath factor μ normalized across the fleet, discounted by
	// adaptation health (1 for the best healthy link; 0 is treated as
	// "unset" and fused at uniform weight). Count-based policies (KOfN,
	// MaxScore) ignore it; WeightedKOfN votes with it.
	Weight float64
	// Health is the link's adaptation snapshot (zero value when adaptation
	// is disabled).
	Health adapt.Health
}

// Coverage reports how much of the fleet stood behind a verdict — the
// degradation view a supervised site exposes: a verdict fused from 3 of 5
// links because two collectors are down is still a verdict, but the
// operator (and the fleet coordinator) must know it rests on partial
// evidence.
type Coverage struct {
	// Links is the registered fleet size.
	Links int
	// Fused counts links whose current decision actually entered fusion.
	Fused int
	// Live/Stale/Down/Recovering count links per lifecycle state (all zero
	// when supervision is off — links then report LifecycleUnsupervised).
	Live, Stale, Down, Recovering int
	// Recalibrating counts links excluded while an online recalibration
	// rebuilds their baseline.
	Recalibrating int
}

// Degraded reports whether any registered link was left out of fusion.
func (c Coverage) Degraded() bool { return c.Fused < c.Links }

// SiteVerdict is the fused, site-level presence verdict over all monitored
// links — the deployment-level answer RASID-style systems report.
type SiteVerdict struct {
	// Present is the fused decision. Check Inconclusive first: an
	// inconclusive verdict's Present is false because nothing could vote,
	// not because the site was observed empty.
	Present bool
	// Score is the policy's fused statistic: the positive-link fraction for
	// KOfN, the maximum normalized score for MaxScore.
	Score float64
	// Positive and Total count links voting present and links fused.
	Positive, Total int
	// Policy names the fusion policy that produced the verdict.
	Policy string
	// Links holds the per-link decisions the verdict was fused from.
	Links []LinkDecision
	// Coverage summarizes link availability behind the verdict (stamped by
	// the engine; zero value when a policy's Fuse is called directly).
	Coverage Coverage
	// Inconclusive marks a dead site: every link is down, recovering,
	// recalibrating, or quarantined, so no trustworthy vote exists. The
	// answer is "inspect/recalibrate the site", never "absent".
	Inconclusive bool
	// Round is the id of the latest closed fusion round (stamped by the
	// engine): 0 before the first close, then +1 per close, continuing
	// across Runs. A verdict handed to Config.OnRound carries that round's
	// id.
	Round uint64
}

// FusionPolicy combines per-link decisions into one site verdict.
type FusionPolicy interface {
	// Fuse returns the site verdict for a snapshot of link decisions. It
	// must return ErrNoDecisions (possibly wrapped) for an empty snapshot.
	Fuse(decisions []LinkDecision) (SiteVerdict, error)
	// String names the policy for logs and metrics.
	String() string
}

// KOfN declares the site occupied when at least K of the N fused links vote
// present. K ≤ 0 selects a strict majority (N/2+1); K > N is clamped to N
// (unanimity). A tie — exactly K positive links — is a detection: the
// threshold is inclusive.
type KOfN struct{ K int }

// kofnNames interns the common K values so Fuse, which stamps the policy
// name into every verdict, stays allocation-free on the steady-state path.
var kofnNames = [...]string{"", "1-of-n", "2-of-n", "3-of-n", "4-of-n", "5-of-n", "6-of-n", "7-of-n", "8-of-n"}

// String implements FusionPolicy.
func (p KOfN) String() string {
	if p.K <= 0 {
		return "majority"
	}
	if p.K < len(kofnNames) {
		return kofnNames[p.K]
	}
	return fmt.Sprintf("%d-of-n", p.K)
}

// Fuse implements FusionPolicy.
func (p KOfN) Fuse(decisions []LinkDecision) (SiteVerdict, error) {
	n := len(decisions)
	if n == 0 {
		return SiteVerdict{}, ErrNoDecisions
	}
	k := p.K
	if k <= 0 {
		k = n/2 + 1
	}
	if k > n {
		k = n
	}
	positive := 0
	for _, d := range decisions {
		if d.Present {
			positive++
		}
	}
	return SiteVerdict{
		Present:  positive >= k,
		Score:    float64(positive) / float64(n),
		Positive: positive,
		Total:    n,
		Policy:   p.String(),
		Links:    decisions,
	}, nil
}

// WeightedKOfN is quality-weighted k-of-n voting: every link votes with its
// LinkDecision.Weight (characterized link quality × adaptation health) and
// the site is declared occupied when the positive weight reaches the K/N
// fraction of the total weight. With all weights equal it reduces exactly
// to KOfN — k equal votes of n trip it, k−1 do not — while a drifting or
// quarantined link's discounted vote cannot outvote healthy links.
// K ≤ 0 selects a strict majority (N/2+1); K > N clamps to N.
//
// Trade-off: a person parked on exactly one link long enough to quarantine
// it (single-link ambiguity — sustained presence and a furniture step look
// identical) has their sustained vote discounted too; the early windows of
// the visit fuse at full weight and alarm, after which the link reads as
// unreliable until recalibrated. Deployments that prefer never discounting
// positive votes keep count-based KOfN.
type WeightedKOfN struct{ K int }

// weightedNames mirrors kofnNames for the weighted policy.
var weightedNames = [...]string{"", "weighted-1-of-n", "weighted-2-of-n", "weighted-3-of-n", "weighted-4-of-n",
	"weighted-5-of-n", "weighted-6-of-n", "weighted-7-of-n", "weighted-8-of-n"}

// String implements FusionPolicy.
func (p WeightedKOfN) String() string {
	if p.K <= 0 {
		return "weighted-majority"
	}
	if p.K < len(weightedNames) {
		return weightedNames[p.K]
	}
	return fmt.Sprintf("weighted-%d-of-n", p.K)
}

// Fuse implements FusionPolicy.
func (p WeightedKOfN) Fuse(decisions []LinkDecision) (SiteVerdict, error) {
	n := len(decisions)
	if n == 0 {
		return SiteVerdict{}, ErrNoDecisions
	}
	k := p.K
	if k <= 0 {
		k = n/2 + 1
	}
	if k > n {
		k = n
	}
	var totalW, positiveW float64
	positive := 0
	fused := 0
	writtenOff := 0
	for _, d := range decisions {
		if d.Health.NeedsRecalibration {
			writtenOff++
		}
		w := d.Weight
		if w <= 0 {
			// Unset weight (engine without adaptation metadata, or a
			// hand-built decision): vote uniformly.
			w = 1
		}
		if w < MinFusibleWeight {
			// A dead vote: counting it into either sum would only add
			// rounding noise to the quorum fraction.
			continue
		}
		fused++
		totalW += w
		if d.Present {
			positive++
			positiveW += w
		}
	}
	if fused == 0 || writtenOff == n {
		// Every link is quarantined (NeedsRecalibration on the whole
		// fleet) or otherwise weighted to nothing: each remaining vote
		// comes from a baseline the system itself has declared
		// untrustworthy, and fusing them anyway would launder that into a
		// confident verdict. Refuse explicitly — the answer is
		// "inconclusive: recalibrate the site", not "absent".
		return SiteVerdict{}, fmt.Errorf("all %d links quarantined or weightless: %w", n, ErrAllQuarantined)
	}
	frac := positiveW / totalW
	// The small epsilon keeps the equal-weight case exactly k-of-n despite
	// floating-point division (k/n must count as reaching the quorum).
	quorum := float64(k)/float64(n) - 1e-9
	return SiteVerdict{
		Present:  frac >= quorum,
		Score:    frac,
		Positive: positive,
		Total:    n,
		Policy:   p.String(),
		Links:    decisions,
	}, nil
}

// MaxScore declares the site occupied when any link's score clears its own
// threshold, and reports the fleet's maximum threshold-normalized score —
// the most sensitive-link view, useful when a person can only perturb one
// link at a time.
type MaxScore struct{}

// String implements FusionPolicy.
func (MaxScore) String() string { return "max-score" }

// Fuse implements FusionPolicy.
func (MaxScore) Fuse(decisions []LinkDecision) (SiteVerdict, error) {
	n := len(decisions)
	if n == 0 {
		return SiteVerdict{}, ErrNoDecisions
	}
	var best float64
	positive := 0
	present := false
	for i, d := range decisions {
		r := d.Score
		if d.Threshold > 0 {
			r = d.Score / d.Threshold
		}
		if i == 0 || r > best {
			best = r
		}
		if d.Present {
			positive++
			present = true
		}
	}
	return SiteVerdict{
		Present:  present,
		Score:    best,
		Positive: positive,
		Total:    n,
		Policy:   MaxScore{}.String(),
		Links:    decisions,
	}, nil
}
