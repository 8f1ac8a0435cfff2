// Command mlink-serve is the multi-link monitoring daemon: it builds a
// fleet of N evaluation links (cycling the paper's five Fig. 6 link cases),
// calibrates each link's static profile in parallel, then monitors all
// links concurrently and prints rolling site-level verdicts fused across
// the fleet.
//
// Online adaptation and environment drift are first-class: -adapt enables
// per-link profile refresh / threshold re-derivation / drift quarantine,
// and -drift injects a drift preset (gain walk, CFO walk, furniture move,
// correlated ambient event) into every link so the adaptation can be
// watched working. -fleet layers the cross-link coordinator on top
// (ambient-drift disambiguation, automatic quarantine clearing, staggered
// online recalibration), and -journal makes the adapted baselines durable
// across daemon restarts and crashes: a write-ahead journal, restored at
// startup and compacted into per-link snapshots at shutdown. A directory an
// older build wrote with per-link snapshot files alone opens unchanged.
//
// -supervise puts every link's source behind a supervisor (bounded ingest
// ring, Live/Stale/Down/Recovering lifecycle, jittered-backoff reconnects):
// a stalled or dead source degrades only its own link's coverage while the
// rest of the fleet keeps scoring, and the daemon keeps serving the
// remaining links when one source errors out. -chaos injects a deterministic
// fault schedule into one link (-chaos-link) to watch the degradation and
// recovery live.
//
// Usage:
//
//	mlink-serve -links 5 -scheme subcarrier -workers 4 -windows 8 -occupied 3
//	mlink-serve -links 3 -adapt -drift gain -drift-rate 12 -windows 40 -fusion weighted
//	mlink-serve -links 5 -fleet -drift ambient -drift-rate 2 -drift-step 900 -windows 60
//	mlink-serve -links 5 -fleet -journal /var/lib/mlink/journal -windows 0
//	mlink-serve -links 5 -supervise -chaos flap -chaos-link 2 -windows 40
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof exposes the default mux's profile endpoints
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mlink"
	"mlink/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func fusionOf(name string, k int) (mlink.FusionPolicy, error) {
	switch name {
	case "kofn":
		return mlink.KOfN{K: k}, nil
	case "weighted":
		return mlink.WeightedKOfN{K: k}, nil
	case "max":
		return mlink.MaxScore{}, nil
	default:
		return nil, fmt.Errorf("unknown fusion %q (kofn|weighted|max)", name)
	}
}

func chaosOf(name string) (mlink.ChaosConfig, bool, error) {
	switch name {
	case "", "none":
		return mlink.ChaosConfig{}, false, nil
	case "stall":
		return mlink.ChaosConfig{StallEvery: 200, StallFor: 2 * time.Second}, true, nil
	case "drip":
		return mlink.ChaosConfig{DripEvery: 1, DripDelay: 20 * time.Millisecond}, true, nil
	case "eof":
		return mlink.ChaosConfig{EOFEvery: 300}, true, nil
	case "flap":
		return mlink.ChaosConfig{FailEvery: 250, FailConnects: 3}, true, nil
	case "drop":
		return mlink.ChaosConfig{DropEvery: 100, DropBurst: 40}, true, nil
	case "torn":
		return mlink.ChaosConfig{TornEvery: 300}, true, nil
	default:
		return mlink.ChaosConfig{}, false, fmt.Errorf("unknown chaos %q (none|stall|drip|eof|flap|drop|torn)", name)
	}
}

func driftOf(name string, gainRate float64, stepAt int) (mlink.DriftPreset, bool, error) {
	switch name {
	case "", "none":
		return mlink.DriftPreset{}, false, nil
	case "gain":
		return mlink.GainWalkDrift(gainRate), true, nil
	case "cfo":
		return mlink.CFOWalkDrift(60, 0.05), true, nil
	case "furniture":
		return mlink.FurnitureMoveDrift(stepAt), true, nil
	case "ambient":
		// The correlated site-wide event: every link gets the same walk
		// plus a 6 dB AGC re-lock step — the scenario -fleet disambiguates
		// from a person.
		return mlink.AmbientSiteDrift(gainRate, 6, stepAt), true, nil
	default:
		return mlink.DriftPreset{}, false, fmt.Errorf("unknown drift %q (none|gain|cfo|furniture|ambient)", name)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mlink-serve", flag.ExitOnError)
	var (
		nLinks     = fs.Int("links", 5, "number of monitored links (cycles the 5 Fig. 6 cases)")
		schemeName = fs.String("scheme", "subcarrier", "detection scheme: baseline|subcarrier|path")
		workers    = fs.Int("workers", 0, "scoring/calibration pool size (0 = GOMAXPROCS)")
		calN       = fs.Int("cal", 150, "calibration packets per link")
		window     = fs.Int("window", 25, "monitoring window packets")
		windows    = fs.Int("windows", 8, "windows per link (0 = run until interrupted)")
		occupied   = fs.Int("occupied", 0, "1-based index of a link with a person at its midpoint (0 = all empty)")
		fusionName = fs.String("fusion", "kofn", "site fusion policy: kofn|weighted|max")
		k          = fs.Int("k", 1, "K for k-of-n fusion (0 = majority)")
		seed       = fs.Int64("seed", 1, "base simulation seed")
		adaptOn    = fs.Bool("adapt", false, "enable per-link online adaptation (profile refresh, threshold re-derivation, drift quarantine)")
		fleetOn    = fs.Bool("fleet", false, "enable cross-link fleet coordination (ambient-drift disambiguation, auto quarantine clearing, staggered online recalibration); implies -adapt")
		journalDir = fs.String("journal", "", "crash-safe journal directory: restore baselines at startup (recovering from torn tails) and checkpoint continuously while running")
		journalSyn = fs.Duration("journal-sync", time.Second, "journal fsync cadence — the crash loss window (with -journal)")
		driftName  = fs.String("drift", "none", "environment drift preset applied to every link: none|gain|cfo|furniture|ambient")
		driftRate  = fs.Float64("drift-rate", 12, "gain-walk slope in dB/min (for -drift gain|ambient)")
		driftStep  = fs.Int("drift-step", 600, "furniture-move / ambient-step packet (for -drift furniture|ambient)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live CPU/heap profiles")
		superOn    = fs.Bool("supervise", false, "supervise every link's source: bounded ingest ring, Live/Stale/Down/Recovering lifecycle, backoff reconnects, staleness-aware fusion")
		staleAfter = fs.Duration("stale-after", 500*time.Millisecond, "frame silence before a supervised link reads Stale (with -supervise)")
		downAfter  = fs.Duration("down-after", 2*time.Second, "frame silence before a supervised link reads Down (with -supervise)")
		backoff    = fs.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff for a Down supervised link (with -supervise)")
		backoffMax = fs.Duration("backoff-max", 5*time.Second, "reconnect backoff ceiling (with -supervise)")
		chaosName  = fs.String("chaos", "none", "fault schedule injected into one link: none|stall|drip|eof|flap|drop|torn (with -supervise)")
		chaosLink  = fs.Int("chaos-link", 1, "1-based index of the link that misbehaves (with -chaos)")
		httpAddr   = fs.String("http", "", "serve the HTTP API on this address (e.g. :8080): GET /v1/verdict, /v1/links, /metrics, /v1/stream (SSE)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Fprintf(out, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	fusion, err := fusionOf(*fusionName, *k)
	if err != nil {
		return err
	}
	drift, driftEnabled, err := driftOf(*driftName, *driftRate, *driftStep)
	if err != nil {
		return err
	}
	chaos, chaosEnabled, err := chaosOf(*chaosName)
	if err != nil {
		return err
	}
	if *nLinks < 1 {
		return fmt.Errorf("need at least one link, got %d", *nLinks)
	}
	if *occupied < 0 || *occupied > *nLinks {
		return fmt.Errorf("-occupied %d out of range (0..%d)", *occupied, *nLinks)
	}
	if chaosEnabled && (*chaosLink < 1 || *chaosLink > *nLinks) {
		return fmt.Errorf("-chaos-link %d out of range (1..%d)", *chaosLink, *nLinks)
	}

	var (
		printMu    sync.Mutex
		eng        *mlink.Engine
		fleetState mlink.FleetState
		// lastLifecycle records each supervised link's latest transition
		// target for the final report — metrics stop reporting lifecycle
		// once the run (and with it the supervisors) has ended.
		lastLifecycle = map[string]mlink.LinkLifecycle{}
	)
	eng = mlink.NewEngine(mlink.EngineConfig{
		Workers:    *workers,
		WindowSize: *window,
		Fusion:     fusion,
		OnDecision: func(linkID string, d mlink.Decision) {
			printMu.Lock()
			defer printMu.Unlock()
			mark := " "
			if d.Present {
				mark = "*"
			}
			fmt.Fprintf(out, "%s link %-6s score %7.4f  thr %7.4f\n", mark, linkID, d.Score, d.Threshold)
		},
		OnRound: func(v *mlink.SiteVerdict) {
			printMu.Lock()
			defer printMu.Unlock()
			switch {
			case v.Inconclusive:
				fmt.Fprintf(out, "  site [%s] INCONCLUSIVE: no link can vote (%d down, %d recovering, %d recalibrating of %d)\n",
					v.Policy, v.Coverage.Down, v.Coverage.Recovering,
					v.Coverage.Recalibrating, v.Coverage.Links)
			case v.Coverage.Degraded():
				fmt.Fprintf(out, "  site [%s] present=%v score=%.3f (%d/%d links positive; DEGRADED %d/%d fused)\n",
					v.Policy, v.Present, v.Score, v.Positive, v.Total,
					v.Coverage.Fused, v.Coverage.Links)
			default:
				fmt.Fprintf(out, "  site [%s] present=%v score=%.3f (%d/%d links positive)\n",
					v.Policy, v.Present, v.Score, v.Positive, v.Total)
			}
			if rep, ok := eng.FleetReport(); ok && rep.State != 0 && rep.State != fleetState {
				fleetState = rep.State
				fmt.Fprintf(out, "  fleet state -> %s (drifting %d, jumped %d, quarantined %d; relocks %d, recals %d)\n",
					rep.State, rep.Drifting, rep.Jumped, rep.Quarantined, rep.Relocks, rep.RecalsDispatched)
			}
		},
	})

	if *adaptOn || *fleetOn {
		if err := eng.EnableAdaptation(); err != nil {
			return err
		}
	}
	if *fleetOn {
		if err := eng.EnableFleet(); err != nil {
			return err
		}
	}
	if *superOn || chaosEnabled {
		err := eng.EnableSupervision(mlink.SupervisionPolicy{
			StaleAfter: *staleAfter,
			DownAfter:  *downAfter,
			BackoffMin: *backoff,
			BackoffMax: *backoffMax,
			OnTransition: func(link string, from, to mlink.LinkLifecycle, cause error) {
				printMu.Lock()
				defer printMu.Unlock()
				lastLifecycle[link] = to
				if cause != nil {
					fmt.Fprintf(out, "  ! link %-8s %s -> %s (%v)\n", link, from, to, cause)
					return
				}
				fmt.Fprintf(out, "  ! link %-8s %s -> %s\n", link, from, to)
			},
		})
		if err != nil {
			return err
		}
	}

	var chaosSrc *mlink.ChaosSource
	for i := 1; i <= *nLinks; i++ {
		caseN := (i-1)%5 + 1
		sys, err := mlink.NewLinkCaseSystem(caseN, scheme, *seed+int64(i))
		if err != nil {
			return err
		}
		id := fmt.Sprintf("case%d-%d", caseN, i)
		var people []*mlink.Person
		if i == *occupied {
			mid := sys.Scenario.LinkMidpoint()
			people = append(people, &mlink.Person{X: mid.X, Y: mid.Y})
		}
		switch {
		case chaosEnabled && i == *chaosLink:
			// The misbehaving link: chaos wraps the plain source (drift and
			// chaos on the same link would confound the demo).
			chaosSrc, err = eng.AddChaosLink(id, sys, chaos, people...)
		case driftEnabled:
			err = eng.AddDriftLink(id, sys, drift, people...)
		default:
			err = eng.AddLink(id, sys, people...)
		}
		if err != nil {
			return err
		}
	}

	start := time.Now()
	restored := 0
	if *journalDir != "" {
		ids, err := eng.EnableJournal(*journalDir, mlink.JournalConfig{SyncEvery: *journalSyn})
		if err != nil {
			return err
		}
		restored = len(ids)
		fmt.Fprintf(out, "journal %s: recovered %d/%d link baselines (fsync every %v)\n", *journalDir, restored, *nLinks, *journalSyn)
	}
	if restored < *nLinks {
		fmt.Fprintf(out, "calibrating %d links (%d packets each, scheme %s)...\n", *nLinks-restored, *calN, scheme)
		if err := eng.CalibrateMissing(*calN); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "fleet ready in %v\n", time.Since(start).Round(time.Millisecond))
	var m mlink.EngineMetrics // reused across polls (MetricsInto)
	eng.MetricsInto(&m)
	for _, lm := range m.PerLink {
		fmt.Fprintf(out, "  link %-8s mean mu %6.3f  threshold %7.4f\n", lm.ID, lm.MeanMu, lm.Threshold)
	}

	if chaosSrc != nil {
		// Calibration is done on clean captures; the faults start with
		// monitoring.
		chaosSrc.Arm(true)
		fmt.Fprintf(out, "chaos %q armed on link %d\n", *chaosName, *chaosLink)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -http mounts the serving plane next to the scoring loop: verdict and
	// metrics snapshots plus encode-once SSE verdict streaming. It drains
	// with the run — SIGTERM closes subscribers, finishes in-flight
	// requests, then the daemon syncs its journal and prints the final
	// report as usual.
	var serveDone chan error
	serveStop := func() {}
	if *httpAddr != "" {
		srvCtx, srvCancel := context.WithCancel(ctx)
		serveStop = srvCancel
		serveDone = make(chan error, 1)
		go func() { serveDone <- mlink.Serve(srvCtx, eng, *httpAddr, mlink.ServeOptions{Logf: log.Printf}) }()
		fmt.Fprintf(out, "http API on %s (/v1/verdict /v1/links /metrics /v1/stream)\n", *httpAddr)
	}

	runErr := eng.Run(ctx, *windows)

	if serveDone != nil {
		eng.CloseStream() // every SSE subscriber sees a clean end-of-stream
		serveStop()
		if err := <-serveDone; err != nil {
			log.Printf("http API: %v", err)
		}
		fmt.Fprintln(out, "http API drained")
	}
	if runErr != nil {
		return runErr
	}

	eng.MetricsInto(&m)
	fmt.Fprintf(out, "\nscored %d windows (%d frames) at %.1f windows/s across %d links\n",
		m.WindowsScored, m.FramesSeen, m.ScoresPerSec, m.Links)
	// Scheduler picture: how evenly the work-stealing shards shared the
	// fleet, and what each link's window actually costs (the EWMA the
	// stealing decisions route around).
	fmt.Fprintf(out, "scheduler: %d shards, %d migrations", len(m.Shards), m.Steals)
	for i, sm := range m.Shards {
		fmt.Fprintf(out, "  [s%d %d windows, %.0f%% busy]", i, sm.WindowsScored, 100*sm.Utilization)
	}
	fmt.Fprintln(out)
	for _, lm := range m.PerLink {
		fmt.Fprintf(out, "  link %-10s cost %8.1f µs/window (EWMA)\n", lm.ID, lm.NsPerWindowEWMA/1e3)
	}
	if *adaptOn || *fleetOn {
		for _, lm := range m.PerLink {
			h := lm.Health
			fmt.Fprintf(out, "  link %-10s health %-11s  z %6.1f  shift %5.2f dB  refreshes %3d  relocks %d  thr %7.4f  recal-needed %v\n",
				lm.ID, h.State, h.DriftZ, h.ProfileShiftDB, h.Refreshes, h.Relocks, lm.Threshold, h.NeedsRecalibration)
		}
	}
	if *superOn || chaosEnabled {
		printMu.Lock()
		for _, lm := range m.PerLink {
			// A supervised link that never transitioned ran live end to end.
			lc, ok := lastLifecycle[lm.ID]
			if !ok {
				lc = mlink.LinkLive
			}
			fmt.Fprintf(out, "  link %-10s lifecycle %-12s  drops %4d  reconnects %d\n",
				lm.ID, lc, lm.SourceDrops, lm.Reconnects)
		}
		printMu.Unlock()
	}
	if chaosSrc != nil {
		st := chaosSrc.Stats()
		fmt.Fprintf(out, "chaos ground truth: delivered %d, dropped %d, stalls %d, drips %d, eofs %d, fails %d, torn %d, reconnects %d (%d redials refused)\n",
			st.Delivered, st.Dropped, st.Stalls, st.Drips, st.EOFs, st.Fails, st.Torn, st.Reconnects, st.FailedConnects)
	}
	if rep, ok := eng.FleetReport(); ok {
		fmt.Fprintf(out, "fleet classification: %s (links %d, drifting %d, jumped %d, quarantined %d, walking %d; relocks %d, recals dispatched %d, quarantines cleared %d)\n",
			rep.State, rep.Links, rep.Drifting, rep.Jumped, rep.Quarantined, rep.Walking,
			rep.Relocks, rep.RecalsDispatched, rep.QuarantinesCleared)
	}
	v, err := eng.Verdict()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final site verdict [%s]: present=%v score=%.3f (%d/%d links positive)\n",
		v.Policy, v.Present, v.Score, v.Positive, v.Total)
	if *journalDir != "" {
		if err := eng.CloseJournal(); err != nil {
			return err
		}
		fmt.Fprintf(out, "journal %s: compacted and closed\n", *journalDir)
	}
	return nil
}
