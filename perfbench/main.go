// Command perfbench is the repository benchmark. It replays pre-recorded
// simulated CSI through the whole monitoring pipeline on a fixed schedule —
// csinet decode → supervised ingest rings → engine shards (sanitize →
// weights → spectra → distance → adapt.Observe → journal) → fusion → SSE hub
// → HTTP — checks every decision bit for bit against a single-threaded
// reference run, and prints either the end-to-end metrics (--trace 0) or
// the per-layer metrics and stage table (--trace 1).
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload path-fine --seed 3 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	out     string
	// Self-test fault injection.
	corruptRef bool  // flip one reference decision
	drop       int64 // monitoring frame of link 0 lost in the paced phase; -1 for none
}

func main() {
	name := flag.String("workload", "", "workload: subcarrier-fleet, path-fine or adaptive-journal")
	seed := flag.Int64("seed", 1, "input seed; every recorded frame derives from it")
	seconds := flag.Int("seconds", 36, "paced seconds; an end-to-end run splits them between its paced deployments, a traced run between two paced phases")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for journals and trace files")
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	o := options{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out, drop: -1}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	line, err := res.jsonLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

// run generates the inputs, scores the reference and runs the requested mode.
func run(ctx context.Context, o options) (*result, error) {
	t0 := time.Now()
	in, err := generate(o.w, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	t1 := time.Now()
	rounds := pacedRounds(o)
	if o.traced {
		rounds = max(rounds, satRounds(len(in)))
	}
	ref, err := buildReference(ctx, o.w, in, rounds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: inputs generated in %.2f s, reference scored in %.2f s\n",
		t1.Sub(t0).Seconds(), time.Since(t1).Seconds())
	if o.corruptRef {
		w := int64(warmRounds)
		if ref.period > 0 {
			w %= ref.period // looped links are looked up modulo the period
		}
		d := &ref.dec[0][w]
		d.Score = math.Nextafter(d.Score, math.Inf(1))
	}
	if o.traced {
		return runTraced(ctx, o, in, ref)
	}
	return runEndToEnd(ctx, o, in, ref)
}

type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports (BENCHMARK.json's
// end_to_end). failed_frac, zero on a correct run, is printed beside them
// and carried by the result line's failed and attempted. The verdict
// latencies are printed too but reported with the per-layer metrics, as is
// the saturated throughput windows_per_s: on a shared host they follow the
// hypervisor's steal and the host's speed by more than any usable bound.
var endToEnd = []metricSpec{
	{"cpu_us_per_window", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports (BENCHMARK.json's per_layer).
var perLayer = []metricSpec{
	{"verdict_latency_p50_ms", "ms"},
	{"windows_per_s", "windows/s"},
	{"verdict_latency_p90_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.frames_offered", "count"},
	{"csinet.decode_ns", "ns"},
	{"csinet.frames", "count"},
	{"csinet.bytes", "bytes"},
	{"csinet.errors", "count"},
	{"supervise.ring_drops", "count"},
	{"supervise.transitions", "count"},
	{"engine.decision_latency_us_p50", "us"},
	{"engine.decision_latency_us_p99", "us"},
	{"engine.window_residence_us_p50", "us"},
	{"engine.window_residence_us_p99", "us"},
	{"engine.link_ns_per_window", "ns"},
	{"engine.shard_busy_frac", "fraction"},
	{"engine.shard_busy_spread", "fraction"},
	{"engine.steals", "count"},
	{"engine.fuse_ns", "ns"},
	{"engine.calibrate_s", "s"},
	{"engine.windows_per_s_1w", "windows/s"},
	{"sanitize.window_ns", "ns"},
	{"dsp.idft_ns", "ns"},
	{"core.weights_ns", "ns"},
	{"core.score_ns", "ns"},
	{"core.distance_ns", "ns"},
	{"core.calibrate_ms", "ms"},
	{"music.covariance_ns", "ns"},
	{"music.bartlett_ns", "ns"},
	{"adapt.observe_ns", "ns"},
	{"adapt.refreshes", "count"},
	{"adapt.delta_bytes", "bytes"},
	{"fleet.journal_appends", "count"},
	{"fleet.journal_bytes", "bytes"},
	{"fleet.journal_append_ns", "ns"},
	{"fleet.journal_open_ms", "ms"},
	{"serve.encode_ns", "ns"},
	{"serve.publish_ns", "ns"},
	{"serve.rounds", "count"},
	{"serve.encodes", "count"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.sse_events", "count"},
	{"serve.sse_bytes", "bytes"},
	{"serve.poll_ms_p50", "ms"},
	{"runtime.alloc_bytes_per_window", "bytes"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"trace.stage_coverage", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}

// Stage coverage tolerance: the replayed stage self-times must add up to
// the in-place per-window cost within this band. The replay runs alone on
// warm caches while the in-place cost shares the host with a second shard,
// the generator and the serving plane, so coverage sits below 1.
const (
	coverageMin = 0.5
	coverageMax = 1.5
)

type metric struct {
	metricSpec
	value float64
}

type result struct {
	o         options
	specs     []metricSpec
	attempted int64
	failed    int64
	metrics   []metric
	notes     []string
}

func newResult(o options, specs []metricSpec) *result {
	return &result{o: o, specs: specs}
}

// add records a metric; the name must be one of the result's specs.
func (r *result) add(name string, value float64) {
	for _, s := range r.specs {
		if s.name == name {
			r.metrics = append(r.metrics, metric{s, value})
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) failedFrac() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// stageTable adds the per-window stage table to the notes. A stage within
// a few timer floors of nothing is marked as bypassed by the workload.
func (r *result) stageTable(s stageTimes, linkNs, floor float64) {
	rows := []struct {
		name string
		ns   float64
	}{
		{"sanitize", s.sanitize},
		{"core.weights (incl. dsp.idft)", s.weights},
		{"music.covariance", s.covariance},
		{"music.bartlett", s.bartlett},
		{"core.distance (self)", s.distance()},
		{"adapt.observe", s.observe},
	}
	total := s.score + s.observe
	r.note("stage table (single-goroutine replay, ns per window; timer floor %.0f ns):", floor)
	for _, row := range rows {
		mark := ""
		if row.ns < 4*floor {
			mark = "  bypassed"
		}
		r.note("  %-30s %12.0f  %5.1f%%%s", row.name, row.ns, 100*ratio(row.ns, total), mark)
	}
	r.note("  %-30s %12.0f  (dsp.idft %.0f ns per call)", "sum", total, s.idft)
	verdict := "within"
	cov := ratio(total, linkNs)
	if cov < coverageMin || cov > coverageMax {
		verdict = "OUTSIDE"
	}
	r.note("  in-place engine.link_ns_per_window %.0f: coverage %.2f, %s tolerance [%.1f, %.1f]",
		linkNs, cov, verdict, coverageMin, coverageMax)
}

func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.o.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s: workload=%s seed=%d seconds=%d\n", mode, r.o.w.name, r.o.seed, r.o.seconds)
	fmt.Fprintf(w, "  shape:    %s\n  why:      %s\n  loads:    %s\n  bypasses: %s\n",
		r.o.w.shape(), r.o.w.why, r.o.w.loads, r.o.w.bypasses)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine is the result line the benchmark contract asks for. Every
// declared metric must be present and finite.
func (r *result) jsonLine() ([]byte, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric, len(r.metrics))}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	for _, s := range r.specs {
		if _, ok := out.Metrics[s.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
	}
	return json.Marshal(out)
}

// base anchors every span and due time: ns since the process started.
var base = time.Now()

func since(t time.Time) int64 { return t.Sub(base).Nanoseconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// quantile linearly interpolates the q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads, from the cpu line of /proc/stat, the time the hypervisor
// ran something else while this machine's CPUs were ready to run (steal),
// and the CPUs' total time, both in clock ticks. Zero when unavailable.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 {
		return 0, 0
	}
	for _, s := range f[1:9] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}
