package experiments

import (
	"fmt"
	"math"
	"strings"

	"mlink/internal/core"
	"mlink/internal/csi"
	"mlink/internal/dsp"
	"mlink/internal/eval"
	"mlink/internal/geom"
	"mlink/internal/linalg"
	"mlink/internal/music"
	"mlink/internal/sanitize"
	"mlink/internal/scenario"
)

// SchemeROC is one scheme's ROC summary.
type SchemeROC struct {
	Scheme   core.Scheme
	Points   []eval.ROCPoint
	AUC      float64
	Balanced eval.ROCPoint
}

// Fig7Result is the overall detection ROC comparison.
type Fig7Result struct {
	PerScheme []SchemeROC
}

// Fig7 sweeps the ROC per scheme over a campaign's samples.
func Fig7(c *Campaign) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, scheme := range Schemes {
		samples := c.SchemeSamples(scheme)
		points, err := eval.ROC(samples)
		if err != nil {
			return nil, fmt.Errorf("fig7 %v: %w", scheme, err)
		}
		auc, err := eval.AUC(points)
		if err != nil {
			return nil, err
		}
		bp, err := eval.BalancedPoint(points)
		if err != nil {
			return nil, err
		}
		res.PerScheme = append(res.PerScheme, SchemeROC{
			Scheme: scheme, Points: points, AUC: auc, Balanced: bp,
		})
	}
	return res, nil
}

// BalancedThreshold returns the balanced operating threshold of a scheme.
func (r *Fig7Result) BalancedThreshold(scheme core.Scheme) (float64, error) {
	for _, s := range r.PerScheme {
		if s.Scheme == scheme {
			return s.Balanced.Threshold, nil
		}
	}
	return 0, fmt.Errorf("scheme %v not in result: %w", scheme, core.ErrBadInput)
}

// Render prints balanced points, AUCs and decimated ROC curves.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 7 — overall detection ROC\n")
	fmt.Fprintf(&b, "  %-28s  %8s  %10s  %10s\n", "scheme", "AUC", "TP(bal)", "FP(bal)")
	for _, s := range r.PerScheme {
		fmt.Fprintf(&b, "  %-28s  %8.3f  %9.1f%%  %9.1f%%\n",
			s.Scheme, s.AUC, 100*s.Balanced.TPR, 100*s.Balanced.FPR)
	}
	for _, s := range r.PerScheme {
		fmt.Fprintf(&b, "%s ROC:\n  %10s  %10s\n", s.Scheme, "FPR", "TPR")
		step := len(s.Points) / 15
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(s.Points); i += step {
			fmt.Fprintf(&b, "  %10.3f  %10.3f\n", s.Points[i].FPR, s.Points[i].TPR)
		}
	}
	return b.String()
}

// Fig8Result is the per-link-case detection rate at the global balanced
// thresholds.
type Fig8Result struct {
	Cases     []int
	PerScheme map[core.Scheme][]float64 // detection rate per case
}

// Fig8 evaluates each case at the overall balanced threshold from Fig. 7.
func Fig8(c *Campaign, roc *Fig7Result, cases []int) (*Fig8Result, error) {
	res := &Fig8Result{Cases: cases, PerScheme: make(map[core.Scheme][]float64)}
	for _, scheme := range Schemes {
		th, err := roc.BalancedThreshold(scheme)
		if err != nil {
			return nil, err
		}
		for _, caseID := range cases {
			sub := c.FilterCase(caseID).SchemeSamples(scheme)
			dr, err := eval.DetectionRate(sub, th)
			if err != nil {
				return nil, fmt.Errorf("fig8 case %d %v: %w", caseID, scheme, err)
			}
			res.PerScheme[scheme] = append(res.PerScheme[scheme], dr)
		}
	}
	return res, nil
}

// Render prints the per-case table.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — detection rate per link case (balanced threshold)\n")
	fmt.Fprintf(&b, "  %6s", "case")
	for _, scheme := range Schemes {
		fmt.Fprintf(&b, "  %-28s", scheme)
	}
	b.WriteString("\n")
	for i, caseID := range r.Cases {
		fmt.Fprintf(&b, "  %6d", caseID)
		for _, scheme := range Schemes {
			fmt.Fprintf(&b, "  %27.1f%%", 100*r.PerScheme[scheme][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig9Result is detection rate versus target distance from the receiver.
type Fig9Result struct {
	// BinCenters are the distance bins (metres).
	BinCenters []float64
	PerScheme  map[core.Scheme][]float64
	// RangeAt90 is, per scheme, the largest bin centre with ≥90% detection
	// (the paper's headline coverage metric).
	RangeAt90 map[core.Scheme]float64
}

// Fig9 runs a dedicated distance-sweep campaign: presence locations at
// controlled distances (1–5 m) from the receiver along a long link.
func Fig9(windowPackets, windowsPerLoc int, seed int64) (*Fig9Result, error) {
	// A long diagonal link gives room for 5 m targets.
	s, err := scenario.LinkCase(1, seed)
	if err != nil {
		return nil, err
	}
	c := &Campaign{}
	distances := []float64{1, 2, 3, 4, 5}
	// Presence locations: along the RX→TX direction at each distance, with
	// small lateral offsets.
	var locations []geom.Point
	rx := s.RXCenter()
	dir := s.TX().Sub(rx)
	u := dir.Scale(1 / dir.Norm())
	perp := geom.Point{X: -u.Y, Y: u.X}
	// Mixed lateral offsets, as in the paper's grids: near-path locations
	// shadow the LOS, farther ones are reflection-dominated — the regime
	// that constrains coverage (§IV-B) and that path weighting rescues.
	for _, d := range distances {
		for _, lat := range []float64{0.4, 0.8, 1.2} {
			locations = append(locations, rx.Add(u.Scale(d)).Add(perp.Scale(lat)))
		}
	}
	cfg := CampaignConfig{
		Cases:              []int{1},
		Sessions:           2,
		CalibrationPackets: 150,
		WindowPackets:      windowPackets,
		WindowsPerLocation: windowsPerLoc,
		BackgroundPeople:   3,
		Seed:               seed,
	}
	for sess := int64(1); sess <= int64(cfg.Sessions); sess++ {
		if err := c.runSession(s, cfg, 1, sess, locations); err != nil {
			return nil, fmt.Errorf("fig9 session %d: %w", sess, err)
		}
	}

	res := &Fig9Result{
		BinCenters: distances,
		PerScheme:  make(map[core.Scheme][]float64),
		RangeAt90:  make(map[core.Scheme]float64),
	}
	for _, scheme := range Schemes {
		all := c.SchemeSamples(scheme)
		points, err := eval.ROC(all)
		if err != nil {
			return nil, err
		}
		bp, err := eval.BalancedPoint(points)
		if err != nil {
			return nil, err
		}
		for _, d := range distances {
			var sub []eval.Sample
			for _, smp := range c.Samples {
				if smp.Scheme != scheme {
					continue
				}
				if !smp.Positive {
					sub = append(sub, eval.Sample{Score: smp.Score, Positive: false})
					continue
				}
				if math.Abs(smp.DistanceToRX-d) < 0.6 {
					sub = append(sub, eval.Sample{Score: smp.Score, Positive: true})
				}
			}
			dr, err := eval.DetectionRate(sub, bp.Threshold)
			if err != nil {
				return nil, err
			}
			res.PerScheme[scheme] = append(res.PerScheme[scheme], dr)
			if dr >= 0.9 && d > res.RangeAt90[scheme] {
				res.RangeAt90[scheme] = d
			}
		}
	}
	return res, nil
}

// Render prints the distance table and the ≥90% range per scheme.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 9 — detection rate vs target distance to receiver\n")
	fmt.Fprintf(&b, "  %10s", "dist(m)")
	for _, scheme := range Schemes {
		fmt.Fprintf(&b, "  %-28s", scheme)
	}
	b.WriteString("\n")
	for i, d := range r.BinCenters {
		fmt.Fprintf(&b, "  %10.1f", d)
		for _, scheme := range Schemes {
			fmt.Fprintf(&b, "  %27.1f%%", 100*r.PerScheme[scheme][i])
		}
		b.WriteString("\n")
	}
	for _, scheme := range Schemes {
		fmt.Fprintf(&b, "range with ≥90%% detection, %s: %.1f m\n", scheme, r.RangeAt90[scheme])
	}
	return b.String()
}

// Fig10Result is the CDF of MUSIC angle-estimation error for single-packet
// and packet-averaged estimation.
type Fig10Result struct {
	SinglePacket Series
	Averaged     Series
	MedianSingle float64
	MedianAvg    float64
}

// Fig10 measures LOS angle-estimation error on the short link across many
// trials.
func Fig10(trials, avgPackets int, seed int64) (*Fig10Result, error) {
	s, err := scenario.ShortLinkNearWall(seed)
	if err != nil {
		return nil, err
	}
	est, err := music.NewEstimator(s.Env.RX.Offsets(), 299792458.0/s.Grid.Center)
	if err != nil {
		return nil, err
	}
	plan, err := est.NewPlan()
	if err != nil {
		return nil, err
	}
	var (
		spec music.Spectrum
		ws   linalg.EigWorkspace
	)
	angles, amps := s.Env.TrueAoAs(s.Grid.Center)
	li, err := dsp.ArgMax(amps)
	if err != nil {
		return nil, err
	}
	trueDeg := angles[li] * 180 / math.Pi

	// A person stands near (not on) the link, never perfectly still — the
	// slight movements are what make packet averaging help (§V-B3).
	rng := randNew(seed + 10)
	bystander := bodyDefault(s.AngularArc(1, 1.3, 30, 30)[0])
	var single, averaged []float64
	for trial := 0; trial < trials; trial++ {
		x, err := s.NewExtractor(int64(1000 + trial))
		if err != nil {
			return nil, err
		}
		frames := captureJitteredWindow(x, avgPackets, bystander, 0.03, nil, rng)
		clean, err := sanitize.Frames(frames, s.Grid.Indices)
		if err != nil {
			return nil, err
		}
		// Per-packet estimates; the "averaged" variant averages the angle
		// estimates across the window (§V-B3: slight user movements vary
		// the per-packet bias, so averaging the estimates helps).
		var sum float64
		for fi, f := range clean {
			cov, err := music.Covariance([]*csi.Frame{f}, nil)
			if err != nil {
				return nil, err
			}
			if err := plan.PseudospectrumInto(&spec, cov, 2, &ws); err != nil {
				return nil, err
			}
			dom, err := spec.DominantAngle()
			if err != nil {
				return nil, err
			}
			if fi == 0 {
				single = append(single, math.Abs(dom-trueDeg))
			}
			sum += dom
		}
		averaged = append(averaged, math.Abs(sum/float64(len(clean))-trueDeg))
	}
	cdfS, err := dsp.NewCDF(single)
	if err != nil {
		return nil, err
	}
	cdfA, err := dsp.NewCDF(averaged)
	if err != nil {
		return nil, err
	}
	xs, ps := cdfS.Points(20)
	xa, pa := cdfA.Points(20)
	medS, err := dsp.Median(single)
	if err != nil {
		return nil, err
	}
	medA, err := dsp.Median(averaged)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{
		SinglePacket: Series{Name: "single packet", X: xs, Y: ps},
		Averaged:     Series{Name: fmt.Sprintf("averaged over %d packets", avgPackets), X: xa, Y: pa},
		MedianSingle: medS,
		MedianAvg:    medA,
	}, nil
}

// Render prints both CDFs.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10 — CDF of MUSIC angle estimation error\n")
	fmt.Fprintf(&b, "median error: single packet %.1f°, averaged %.1f°\n", r.MedianSingle, r.MedianAvg)
	renderSeries(&b, r.SinglePacket, "error(°)", "P(X≤x)")
	renderSeries(&b, r.Averaged, "error(°)", "P(X≤x)")
	return b.String()
}

// Fig11Result is detection rate versus presence angle at fixed radius.
type Fig11Result struct {
	AnglesDeg []float64
	PerScheme map[core.Scheme][]float64
}

// Fig11 runs an angular sweep at the given radius around the receiver.
func Fig11(nAngles int, radius float64, windowPackets, windowsPerLoc int, seed int64) (*Fig11Result, error) {
	s, err := scenario.ShortLinkNearWall(seed)
	if err != nil {
		return nil, err
	}
	arc := s.AngularArc(nAngles, radius, -75, 75)
	cfg := CampaignConfig{
		Cases:              []int{1},
		Sessions:           2,
		CalibrationPackets: 150,
		WindowPackets:      windowPackets,
		WindowsPerLocation: windowsPerLoc,
		BackgroundPeople:   3,
		Seed:               seed,
	}
	c := &Campaign{}
	for sess := int64(1); sess <= int64(cfg.Sessions); sess++ {
		if err := c.runSession(s, cfg, 1, sess, arc); err != nil {
			return nil, fmt.Errorf("fig11 session %d: %w", sess, err)
		}
	}
	res := &Fig11Result{PerScheme: make(map[core.Scheme][]float64)}
	for i := 0; i < nAngles; i++ {
		res.AnglesDeg = append(res.AnglesDeg, -75+150*float64(i)/float64(nAngles-1))
	}
	for _, scheme := range Schemes {
		points, err := eval.ROC(c.SchemeSamples(scheme))
		if err != nil {
			return nil, err
		}
		bp, err := eval.BalancedPoint(points)
		if err != nil {
			return nil, err
		}
		for _, deg := range res.AnglesDeg {
			var sub []eval.Sample
			for _, smp := range c.Samples {
				if smp.Scheme != scheme {
					continue
				}
				if !smp.Positive {
					sub = append(sub, eval.Sample{Score: smp.Score, Positive: false})
					continue
				}
				if math.Abs(smp.AngleDeg-deg) < 150/float64(2*(nAngles-1))+1e-9 {
					sub = append(sub, eval.Sample{Score: smp.Score, Positive: true})
				}
			}
			dr, err := eval.DetectionRate(sub, bp.Threshold)
			if err != nil {
				return nil, err
			}
			res.PerScheme[scheme] = append(res.PerScheme[scheme], dr)
		}
	}
	return res, nil
}

// Render prints the per-angle table.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — detection rate vs presence angle\n")
	fmt.Fprintf(&b, "  %10s", "angle(°)")
	for _, scheme := range Schemes {
		fmt.Fprintf(&b, "  %-28s", scheme)
	}
	b.WriteString("\n")
	for i, a := range r.AnglesDeg {
		fmt.Fprintf(&b, "  %10.0f", a)
		for _, scheme := range Schemes {
			fmt.Fprintf(&b, "  %27.1f%%", 100*r.PerScheme[scheme][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig12Result is detection rate versus monitoring window size.
type Fig12Result struct {
	PacketCounts []int
	PerScheme    map[core.Scheme][]float64
}

// Fig12 sweeps the window size M on the classroom link.
func Fig12(packetCounts []int, seed int64) (*Fig12Result, error) {
	s, err := scenario.LinkCase(2, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{PacketCounts: packetCounts, PerScheme: make(map[core.Scheme][]float64)}
	for _, m := range packetCounts {
		cfg := CampaignConfig{
			Cases:              []int{2},
			Sessions:           1,
			CalibrationPackets: 150,
			WindowPackets:      m,
			WindowsPerLocation: 2,
			BackgroundPeople:   3,
			Seed:               seed + int64(m),
		}
		c := &Campaign{}
		if err := c.runSession(s, cfg, 2, 1, s.Grid3x3()); err != nil {
			return nil, fmt.Errorf("fig12 M=%d: %w", m, err)
		}
		for _, scheme := range Schemes {
			points, err := eval.ROC(c.SchemeSamples(scheme))
			if err != nil {
				return nil, err
			}
			bp, err := eval.BalancedPoint(points)
			if err != nil {
				return nil, err
			}
			dr, err := eval.DetectionRate(c.SchemeSamples(scheme), bp.Threshold)
			if err != nil {
				return nil, err
			}
			res.PerScheme[scheme] = append(res.PerScheme[scheme], dr)
		}
	}
	return res, nil
}

// Render prints the packets/detection-rate table.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 12 — detection rate vs monitoring window size\n")
	fmt.Fprintf(&b, "  %10s", "packets")
	for _, scheme := range Schemes {
		fmt.Fprintf(&b, "  %-28s", scheme)
	}
	b.WriteString("\n")
	for i, m := range r.PacketCounts {
		fmt.Fprintf(&b, "  %10d", m)
		for _, scheme := range Schemes {
			fmt.Fprintf(&b, "  %27.1f%%", 100*r.PerScheme[scheme][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
