// Command mlink-exp regenerates the paper's figures as text tables. Each
// experiment maps to a figure of the paper (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for paper-vs-measured results).
//
// Usage:
//
//	mlink-exp -run all
//	mlink-exp -run fig7,fig9 -seed 3 -scale full
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"mlink/internal/experiments"
	"mlink/internal/scenario"
)

type runner func(seed int64, full bool) (string, error)

var runners = map[string]runner{
	"fig2a": func(seed int64, full bool) (string, error) {
		c, err := characterization(seed, full)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig2a(c, 25)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig2b": func(seed int64, full bool) (string, error) {
		packets := 400
		if full {
			packets = 1000
		}
		r, err := experiments.Fig2b(packets, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig3a": func(seed int64, full bool) (string, error) {
		c, err := characterization(seed, full)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig3a(c, 25)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig3bc": func(seed int64, full bool) (string, error) {
		c, err := characterization(seed, full)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig3bc(c, []int{5, 10, 15, 20, 25})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig4": func(seed int64, full bool) (string, error) {
		packets := 600
		if full {
			packets = 5000
		}
		r, err := experiments.Fig4(packets, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig5b": func(seed int64, full bool) (string, error) {
		r, err := experiments.Fig5b(100, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig5c": func(seed int64, full bool) (string, error) {
		packets := 30
		if full {
			packets = 100
		}
		r, err := experiments.Fig5c(16, packets, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig7": func(seed int64, full bool) (string, error) {
		c, err := campaign(seed, full)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig7(c)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig8": func(seed int64, full bool) (string, error) {
		c, err := campaign(seed, full)
		if err != nil {
			return "", err
		}
		roc, err := experiments.Fig7(c)
		if err != nil {
			return "", err
		}
		r, err := experiments.Fig8(c, roc, []int{1, 2, 3, 4, 5})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig9": func(seed int64, full bool) (string, error) {
		windows := 2
		if full {
			windows = 4
		}
		r, err := experiments.Fig9(25, windows, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig10": func(seed int64, full bool) (string, error) {
		trials := 40
		if full {
			trials = 150
		}
		r, err := experiments.Fig10(trials, 25, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig11": func(seed int64, full bool) (string, error) {
		windows := 2
		if full {
			windows = 4
		}
		r, err := experiments.Fig11(9, 1.5, 25, windows, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	"fig12": func(seed int64, full bool) (string, error) {
		counts := []int{1, 2, 5, 10, 25, 50}
		r, err := experiments.Fig12(counts, seed)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
	// drift is not a paper figure: it is the adaptation experiment this
	// repo adds on top (frozen vs adaptive detector on the drift presets).
	"drift": func(seed int64, full bool) (string, error) {
		var b strings.Builder
		presets := []scenario.DriftPreset{
			scenario.NoDrift(),
			scenario.GainWalk(12),
			scenario.CFOWalk(60, 0.05),
			scenario.FurnitureMove(600),
		}
		for _, p := range presets {
			cfg := experiments.DriftExperimentConfig{Preset: p, Seed: seed}
			if !full {
				cfg.MonitorMultiple = 6
			}
			r, err := experiments.RunDriftAdaptation(cfg)
			if err != nil {
				return "", err
			}
			b.WriteString(r.Render())
			b.WriteString("\n")
		}
		return b.String(), nil
	},
	// fleet is the cross-link disambiguation experiment: frozen vs
	// per-link-adaptive vs fleet-coordinated sites on one correlated
	// ambient-drift stream, with a single-link person tail.
	"fleet": func(seed int64, full bool) (string, error) {
		cfg := experiments.FleetDriftConfig{Seed: seed}
		if !full {
			cfg.MonitorMultiple = 6
		}
		r, err := experiments.RunFleetDrift(cfg)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	},
}

// order fixes the rendering sequence for -run all.
var order = []string{
	"fig2a", "fig2b", "fig3a", "fig3bc", "fig4", "fig5b", "fig5c",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "drift", "fleet",
}

var (
	charCache     *experiments.CharacterizationResult
	campaignCache *experiments.Campaign
)

func characterization(seed int64, full bool) (*experiments.CharacterizationResult, error) {
	if charCache != nil {
		return charCache, nil
	}
	locations, packets := 150, 10
	if full {
		locations, packets = 500, 15
	}
	c, err := experiments.RunCharacterization(locations, packets, seed)
	if err != nil {
		return nil, err
	}
	charCache = c
	return c, nil
}

func campaign(seed int64, full bool) (*experiments.Campaign, error) {
	if campaignCache != nil {
		return campaignCache, nil
	}
	cfg := experiments.DefaultCampaignConfig()
	cfg.Seed = seed
	if !full {
		cfg.Sessions = 1
		cfg.WindowsPerLocation = 2
	}
	c, err := experiments.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	campaignCache = c
	return c, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		which = flag.String("run", "all", "comma-separated experiments, or 'all'")
		seed  = flag.Int64("seed", 1, "base seed")
		scale = flag.String("scale", "quick", "workload scale: quick|full")
	)
	flag.Parse()
	full := *scale == "full"

	names := order
	if *which != "all" {
		names = strings.Split(*which, ",")
	}
	return render(os.Stdout, names, *seed, full)
}

// render writes each named experiment's table to w, each preceded by a
// separator line.
func render(w io.Writer, names []string, seed int64, full bool) error {
	for _, name := range names {
		name = strings.TrimSpace(name)
		fn, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(order, ", "))
		}
		out, err := fn(seed, full)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w, strings.Repeat("=", 72))
		fmt.Fprint(w, out)
	}
	return nil
}
