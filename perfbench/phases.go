package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mlink/internal/engine"
)

// Load-generator validity bounds: a paced run outside them is reported as
// invalid instead of being measured.
const (
	maxLagP99Ms    = 50  // generator lag p99
	backlogFactor  = 2.0 // late-third median latency over early-third median…
	backlogSlackMs = 2.0 // …plus this slack, beyond which the backlog is growing
)

// Repetition inside one run. On a shared host the speed switches between
// slow and fast spells lasting seconds, a third apart, so every figure is a
// median over many short deployments rather than over one long one.
const (
	pacedDeploys = 12   // paced deployments of an end-to-end run; at most one per second of --seconds
	satDeploys   = 12   // saturated deployments of a traced run
	satWarm      = 1000 // warm-up windows of one saturated deployment, spread evenly over the links
	satWindows   = 4000 // timed windows of one saturated deployment, spread evenly over the links
)

// satRounds is how many windows per link one saturated deployment scores.
func satRounds(links int) int { return satWarm/links + satWindows/links }

// pacedDeployments is how many paced deployments an end-to-end run splits
// --seconds between.
func pacedDeployments(o options) int { return max(min(pacedDeploys, o.seconds), 1) }

// pacedRounds is how many windows per link one paced phase offers: its
// share of --seconds after the warm-up rounds. A traced run splits --seconds
// between its untraced and its traced paced phase; an end-to-end run between
// its paced deployments.
func pacedRounds(o options) int {
	if o.traced {
		return warmRounds + max((o.seconds+1)/2, 1)*roundsPerSec
	}
	return warmRounds + o.seconds*roundsPerSec/pacedDeployments(o)
}

// pacedRun is one open-loop phase's measurements.
type pacedRun struct {
	n          int
	latMs      []float64 // per round from warmRounds on that reached the watcher: due → first SSE event covering it
	lagMs      []float64
	cpu        []float64 // per whole second of the phase: CPU µs per window scored
	windows    int64
	cpuTotal   time.Duration
	mem0, mem1 runtime.MemStats
	m          engine.Metrics
	failed     int64
	offered    int64
	shed       uint64
	pollErrs   int64
	aborted    error // set when the phase was cut short as invalid
}

func (pr *pacedRun) cpuUsPerWindow() float64 {
	return float64(pr.cpuTotal.Microseconds()) / float64(pr.windows)
}

// perSecond splits latency samples, one per round, into one group per second
// of rounds and returns each group's q-quantile.
func perSecond(latMs []float64, q float64) []float64 {
	var out []float64
	for lo := 0; lo+roundsPerSec <= len(latMs); lo += roundsPerSec {
		out = append(out, quantile(latMs[lo:lo+roundsPerSec], q))
	}
	return out
}

// startPaced builds a paced stack, starts it and waits for its first SSE
// event; the returned duration is the set-up time.
func startPaced(ctx context.Context, o options, in []*linkInput, ref *reference, rounds int) (*stack, float64, error) {
	st, err := build(ctx, o, in, ref, true, rounds)
	if err != nil {
		return nil, 0, err
	}
	st.startRun(ctx, rounds)
	if err := st.waitFirst(60 * time.Second); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, st.watch.firstAt.Sub(st.t0).Seconds(), nil
}

// finishPaced measures a started paced stack until its run completes. The
// stack's watcher and poller are stopped; the caller closes the stack.
func finishPaced(st *stack, rounds int) (*pacedRun, error) {
	pr := &pacedRun{n: len(st.srcs)}
	if st.o.w.poller {
		st.poll = startPoller(st.url)
	}
	runtime.ReadMemStats(&pr.mem0)
	cpu0, dec0 := cpuTime(), st.trk.decided.Load()
	cpuPrev, decPrev := cpu0, dec0
	tick := time.NewTicker(time.Second)
	deadline := time.NewTimer(time.Duration(rounds)*2*time.Second/roundsPerSec + 10*time.Second)
wait:
	for {
		select {
		case <-st.runDone:
			break wait
		case <-tick.C:
			cpu, dec := cpuTime(), st.trk.decided.Load()
			if dec > decPrev {
				pr.cpu = append(pr.cpu, float64((cpu-cpuPrev).Microseconds())/float64(dec-decPrev))
			}
			cpuPrev, decPrev = cpu, dec
			// A dropped frame leaves its link short of its last window, so
			// the run could never finish; the phase is invalid anyway.
			st.e.MetricsInto(&pr.m)
			if d := ringDrops(&pr.m); d > 0 {
				tick.Stop()
				deadline.Stop()
				st.cancel()
				<-st.runDone
				pr.aborted = fmt.Errorf("%d frames dropped by the ingest rings", d)
				return pr, nil
			}
		case <-deadline.C:
			tick.Stop()
			return nil, errors.New("paced run: timed out")
		}
	}
	tick.Stop()
	deadline.Stop()
	if st.runErr != nil {
		return nil, fmt.Errorf("paced run: %w", st.runErr)
	}
	pr.cpuTotal, pr.windows = cpuTime()-cpu0, st.trk.decided.Load()-dec0
	runtime.ReadMemStats(&pr.mem1)
	st.settle(10 * time.Second)
	st.pace.halt()
	if st.poll != nil {
		st.poll.halt()
		pr.pollErrs = st.poll.errs
	}
	st.watch.stop()
	st.e.MetricsInto(&pr.m)
	pr.lagMs = st.pace.lagMs
	pr.offered = int64(pr.n) * int64(rounds)
	pr.failed = st.trk.failed.Load() + st.trk.undecided(int64(rounds)) + pr.pollErrs
	pr.shed = st.hub.Shed()
	for r := 0; r < rounds; r++ {
		seen := st.watch.seen[r]
		if seen == 0 {
			pr.failed++ // the round's verdict never reached the wire
			continue
		}
		if r >= warmRounds {
			pr.latMs = append(pr.latMs, float64(seen-st.pace.due(lastFrame(r)+st.pace.maxPhase))/1e6)
		}
	}
	if pr.shed > 0 {
		pr.failed++
	}
	return pr, nil
}

// pacedAttempts bounds how many paced phases a run tries before it gives
// up: a phase the validity bounds reject (the host stalled the generator)
// is discarded and run again on a fresh deployment.
const pacedAttempts = 3

// measurePaced finishes the started paced stack st, or a fresh one when st
// is nil, until a phase passes the validity bounds. The caller closes the
// returned stack.
func measurePaced(ctx context.Context, o options, in []*linkInput, ref *reference, rounds int, st *stack) (*stack, *pacedRun, error) {
	for attempt := 1; ; attempt++ {
		if st == nil {
			s, _, err := startPaced(ctx, o, in, ref, rounds)
			if err != nil {
				return nil, nil, err
			}
			st = s
		}
		pr, err := finishPaced(st, rounds)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		verr := pr.validate()
		if verr == nil {
			return st, pr, nil
		}
		st.close()
		st = nil
		if attempt == pacedAttempts {
			return nil, nil, fmt.Errorf("invalid paced run: %w", verr)
		}
		fmt.Fprintf(os.Stderr, "perfbench: paced phase %d discarded: %v\n", attempt, verr)
	}
}

// lastFrame is the monitoring frame index that closes window r; the round's
// last frame is the one of the link with the largest phase.
func lastFrame(r int) int64 { return int64(r+1)*windowSize - 1 }

// validate applies the load-generator validity bounds.
func (pr *pacedRun) validate() error {
	if pr.aborted != nil {
		return pr.aborted
	}
	if p99 := quantile(pr.lagMs, 0.99); p99 > maxLagP99Ms {
		return fmt.Errorf("load generator fell behind its schedule: lag p99 %.2f ms > %d ms", p99, maxLagP99Ms)
	}
	if third := len(pr.latMs) / 3; third > 0 {
		early, late := quantile(pr.latMs[:third], 0.5), quantile(pr.latMs[len(pr.latMs)-third:], 0.5)
		if late > backlogFactor*early+backlogSlackMs {
			return fmt.Errorf("backlog growing: late-third median latency %.2f ms vs early-third %.2f ms", late, early)
		}
	}
	if drops := ringDrops(&pr.m); drops > 0 {
		return fmt.Errorf("%d frames dropped by the ingest rings", drops)
	}
	return nil
}

func ringDrops(m *engine.Metrics) uint64 {
	var drops uint64
	for _, l := range m.PerLink {
		drops += l.SourceDrops
	}
	return drops
}

// saturatedDeploy runs one unpaced, unsupervised stack through satWarm
// warm-up windows and satWindows timed ones, and reports the timed rate.
func saturatedDeploy(ctx context.Context, o options, in []*linkInput, ref *reference) (rate float64, failed, offered int64, err error) {
	warm, q := satWarm/len(in), satWindows/len(in)
	total := warm + q
	o.drop = -1
	st, err := build(ctx, o, in, ref, false, total)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.close()
	if err := st.e.Run(ctx, warm); err != nil {
		return 0, 0, 0, fmt.Errorf("saturated run: %w", err)
	}
	t0 := time.Now()
	if err := st.e.Run(ctx, q); err != nil {
		return 0, 0, 0, fmt.Errorf("saturated run: %w", err)
	}
	rate = float64(q*len(in)) / time.Since(t0).Seconds()
	st.settle(10 * time.Second)
	failed = st.trk.failed.Load() + st.trk.undecided(int64(total))
	if st.hub.Shed() > 0 {
		failed++
	}
	return rate, failed, int64(total * len(in)), nil
}

// saturatedPhase runs satDeploys saturated deployments one after another and
// reports each one's timed rate.
func saturatedPhase(ctx context.Context, o options, in []*linkInput, ref *reference) (rates []float64, failed, offered int64, err error) {
	for i := 0; i < satDeploys; i++ {
		rate, f, n, err := saturatedDeploy(ctx, o, in, ref)
		if err != nil {
			return nil, 0, 0, err
		}
		rates = append(rates, rate)
		failed, offered = failed+f, offered+n
	}
	return rates, failed, offered, nil
}

// runEndToEnd is the untraced run: pacedDeployments paced deployments, each
// set up (timed), then measured for its share of --seconds. Short
// deployments spread over the whole run sample the host's slow and fast
// spells alike.
func runEndToEnd(ctx context.Context, o options, in []*linkInput, ref *reference) (*result, error) {
	rounds, deploys := pacedRounds(o), pacedDeployments(o)
	res := newResult(o, endToEnd)
	var setups, latMs, cpu []float64
	steal0, total0 := hostTicks()
	for i := 0; i < deploys; i++ {
		st, setup, err := startPaced(ctx, o, in, ref, rounds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		st, pr, err := measurePaced(ctx, o, in, ref, rounds, st)
		if err != nil {
			return nil, err
		}
		st.close()
		// Each deployment starts on a heap as clean as a fresh daemon's, so
		// the peak resident set does not depend on how much garbage earlier
		// deployments left for the collector.
		runtime.GC()
		res.failed += pr.failed
		res.attempted += pr.offered
		latMs = append(latMs, pr.latMs...)
		cpu = append(cpu, pr.cpu...)
	}
	steal1, total1 := hostTicks()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.add("cpu_us_per_window", quantile(cpu, 0.5))
	res.add("setup_s", quantile(setups, 0.5))
	res.add("peak_rss_mb", rss)
	res.note("%-32s %16.6g ms (printed, not gated)", "verdict_latency_p50_ms", quantile(perSecond(latMs, 0.5), 0.5))
	res.note("%-32s %16.6g ms (printed, not gated)", "verdict_latency_p90_ms", quantile(perSecond(latMs, 0.9), 0.5))
	res.note("%-32s %16.6g fraction (%d of %d windows)", "failed_frac", res.failedFrac(), res.failed, res.attempted)
	res.note("latency: median over %d one-second groups of %d rounds from %d paced deployments; windows_per_s is measured by the traced run",
		len(latMs)/roundsPerSec, roundsPerSec, deploys)
	res.note("host steal during the run: %.1f%% of CPU time (verdict latency rises with it)",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	return res, nil
}

// runTraced is the per-layer run: an untraced saturated phase, an untraced
// paced phase, a traced one, and single-goroutine replays of each layer on
// the recorded windows.
func runTraced(ctx context.Context, o options, in []*linkInput, ref *reference) (*result, error) {
	rounds := pacedRounds(o)
	plain := o
	plain.traced = false
	rates, satFailed, satOffered, err := saturatedPhase(ctx, plain, in, ref)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the paced phase's collector figures start from a clean heap
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	st, base, err := measurePaced(ctx, plain, in, ref, rounds, nil)
	if err != nil {
		return nil, err
	}
	calibrateS, journalOpenMs := st.calibrateS, st.journalOpenMs
	st.close()

	st, tr, err := measurePaced(ctx, o, in, ref, rounds, nil)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	defer st.close()
	stages, err := replayStages(o.w, in)
	if err != nil {
		return nil, err
	}
	encodeNs, publishNs, err := replayServe(st.e, o.w.idleSubs+1)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.csv", o.w.name, o.seed))
	if err := writeTrace(path, st, rounds); err != nil {
		return nil, err
	}

	res := newResult(o, perLayer)
	res.attempted = satOffered + base.offered + tr.offered
	res.failed = satFailed + base.failed + tr.failed
	n := len(in)

	res.add("verdict_latency_p50_ms", quantile(perSecond(base.latMs, 0.5), 0.5))
	res.add("windows_per_s", quantile(rates, 0.5))
	res.add("verdict_latency_p90_ms", quantile(perSecond(base.latMs, 0.9), 0.5))
	res.add("loadgen.lag_p99_ms", quantile(tr.lagMs, 0.99))
	res.add("loadgen.frames_offered", float64(st.pace.limit*int64(n)))

	var frames, nbytes, nerrors, timed uint64
	var decodeNs int64
	for _, s := range st.srcs {
		frames, nbytes, nerrors, timed = frames+s.frames, nbytes+s.nbytes, nerrors+s.nerrors, timed+s.timed
		decodeNs += s.decodeNs
	}
	res.add("csinet.decode_ns", ratio(float64(decodeNs), float64(timed)))
	res.add("csinet.frames", float64(frames))
	res.add("csinet.bytes", float64(nbytes))
	res.add("csinet.errors", float64(nerrors))

	res.add("supervise.ring_drops", float64(ringDrops(&tr.m)))
	res.add("supervise.transitions", float64(st.transitions.Load()))

	var decUs, resUs []float64
	for li, s := range st.srcs {
		for w := warmRounds; w < rounds; w++ {
			at := st.trk.decAt[li][w]
			if at == 0 {
				continue
			}
			decUs = append(decUs, float64(at-st.pace.due(lastFrame(w)+s.phase))/1e3)
			if end := s.tr.end[w]; end != 0 {
				resUs = append(resUs, float64(at-end)/1e3)
			}
		}
	}
	res.add("engine.decision_latency_us_p50", quantile(decUs, 0.5))
	res.add("engine.decision_latency_us_p99", quantile(decUs, 0.99))
	res.add("engine.window_residence_us_p50", quantile(resUs, 0.5))
	res.add("engine.window_residence_us_p99", quantile(resUs, 0.99))
	var linkNs float64
	for _, l := range base.m.PerLink {
		linkNs += l.NsPerWindowEWMA / float64(len(base.m.PerLink))
	}
	res.add("engine.link_ns_per_window", linkNs)
	busy := make([]float64, 0, len(base.m.Shards))
	for _, sh := range base.m.Shards {
		busy = append(busy, sh.Utilization)
	}
	sort.Float64s(busy)
	res.add("engine.shard_busy_frac", mean(busy))
	res.add("engine.shard_busy_spread", busy[len(busy)-1]-busy[0])
	res.add("engine.steals", float64(base.m.Steals))
	res.add("engine.fuse_ns", ratio(float64(st.fuse.ns.Load()), float64(st.fuse.calls.Load())))
	res.add("engine.calibrate_s", calibrateS)
	res.add("engine.windows_per_s_1w", ref.windowsPerSec)

	res.add("sanitize.window_ns", stages.sanitize)
	res.add("dsp.idft_ns", stages.idft)
	res.add("core.weights_ns", stages.weights)
	res.add("core.score_ns", stages.score)
	res.add("core.distance_ns", stages.distance())
	res.add("core.calibrate_ms", stages.calibrateMs)
	res.add("music.covariance_ns", stages.covariance)
	res.add("music.bartlett_ns", stages.bartlett)
	res.add("adapt.observe_ns", stages.observe)

	var refreshes uint64
	for _, l := range base.m.PerLink {
		refreshes += l.Health.Refreshes
	}
	res.add("adapt.refreshes", float64(refreshes))
	var jp journalProbe
	if st.jrn != nil {
		jp = *st.jrn
	}
	res.add("adapt.delta_bytes", ratio(float64(jp.deltaBytes), float64(jp.deltas)))
	res.add("fleet.journal_appends", float64(jp.fulls+jp.deltas))
	res.add("fleet.journal_bytes", float64(jp.nbytes))
	floor := timerFloorNs()
	if jp.deltas == 0 {
		res.add("fleet.journal_append_ns", floor)
	} else {
		res.add("fleet.journal_append_ns", float64(jp.ns)/float64(jp.deltas))
	}
	res.add("fleet.journal_open_ms", journalOpenMs)

	res.add("serve.encode_ns", encodeNs)
	res.add("serve.publish_ns", publishNs)
	res.add("serve.rounds", float64(st.hub.Rounds()))
	res.add("serve.encodes", float64(st.hub.Encodes()))
	res.add("serve.coalesced", float64(st.hub.Dropped()))
	res.add("serve.shed", float64(st.hub.Shed()))
	res.add("serve.sse_events", float64(st.watch.events))
	res.add("serve.sse_bytes", float64(st.watch.nbytes))
	var pollMs []float64
	if st.poll != nil {
		pollMs = st.poll.latMs
	} else if pollMs, err = replayPoll(st.url); err != nil {
		return nil, err
	}
	res.add("serve.poll_ms_p50", quantile(pollMs, 0.5))

	res.add("runtime.alloc_bytes_per_window", ratio(float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc), float64(base.windows)))
	res.add("runtime.gc_pause_ms", float64(base.mem1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	res.add("runtime.gc_cycles", float64(base.mem1.NumGC-base.mem0.NumGC))

	covered := stages.score + stages.observe
	res.add("trace.stage_coverage", ratio(covered, linkNs))
	res.add("trace.overhead_frac", tr.cpuUsPerWindow()/base.cpuUsPerWindow()-1)
	res.add("failed_frac", res.failedFrac())

	res.stageTable(stages, linkNs, floor)
	res.note("trace written to %s", path)
	return res, nil
}

// writeTrace writes the traced run's spans, one per line:
// name,link,window,start_ns,end_ns,parent — times in ns since process start,
// parent as "round/<r>" or "window/<link>/<w>".
func writeTrace(path string, st *stack, rounds int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	span := func(name, link string, w int64, start, end int64, parent string) {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%s\n", name, link, w, start, end, parent)
	}
	fmt.Fprintln(bw, "name,link,window,start_ns,end_ns,parent")
	for r := 0; r < rounds; r++ {
		if seen := st.watch.seen[r]; seen != 0 {
			span("round", "", int64(r), st.pace.due(lastFrame(r)+st.pace.maxPhase), seen, "")
		}
	}
	for li, s := range st.srcs {
		id := s.in.id
		for w := 0; w < rounds; w++ {
			win := fmt.Sprintf("window/%s/%d", id, w)
			if at := st.trk.decAt[li][w]; at != 0 {
				span("engine.window", id, int64(w), st.pace.due(int64(w)*windowSize+s.phase), at, fmt.Sprintf("round/%d", w))
			}
			if end := s.tr.end[w]; end != 0 {
				span("csinet.decode", id, int64(w), s.tr.start[w], end, win)
			}
			if st.jrn != nil && st.jrn.end[li][w] != 0 {
				span("fleet.journal_append", id, int64(w), st.jrn.start[li][w], st.jrn.end[li][w], win)
			}
		}
	}
	st.fuse.mu.Lock()
	for _, s := range st.fuse.spans {
		span("engine.fuse", "", s[2], s[0], s[1], fmt.Sprintf("round/%d", s[2]))
	}
	st.fuse.mu.Unlock()
	for _, s := range st.watch.recv {
		span("serve.sse_event", "", s[2], s[0], s[1], fmt.Sprintf("round/%d", s[2]))
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
