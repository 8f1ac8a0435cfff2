// Command benchcheck compares a `go test -bench` run against the reference
// numbers in BENCH_baseline.json and fails (exit 1) on regressions of the
// cached hot paths. It is the CI guard that keeps the PR 2 performance work
// from rotting as the system grows (PR 3's adaptation layer, and whatever
// comes next, must not reintroduce per-frame allocations).
//
// Checks, chosen to be meaningful on a one-iteration (-benchtime=1x) smoke
// run on an arbitrary CI host:
//
//   - Presence: every baseline benchmark must appear in the run. A missing
//     benchmark means the perf harness itself rotted.
//   - Allocations: allocs/op is deterministic regardless of host or
//     iteration count. Baselines at 0 allocs/op (the cached capture and
//     synthesis paths, CaptureInto above all) must stay at exactly 0; other
//     baselines must not grow past 2×.
//   - Cached-path speed: wall-clock ns/op is not portable across hosts, so
//     speed is checked as the cached-vs-naive speedup measured within the
//     same run: it must stay at least half the baseline speedup (a >2×
//     slowdown of the cached path halves the ratio). Pairs whose baseline
//     cached time is under 1 µs are skipped — a single-iteration timing of
//     a nanosecond-scale table copy is timer noise, not signal.
//   - Recorded speedups: a baseline entry may carry prev_ns_per_op (the
//     same benchmark's ns/op from an earlier baseline, measured on the same
//     host) and min_speedup. benchcheck then asserts ns_per_op ≤
//     prev_ns_per_op/min_speedup — a static check on the committed baseline
//     itself, so regenerating the file with numbers that give back a
//     claimed optimization (PR 4's ≥3× engine scoring win, above all)
//     fails CI until the regression is fixed or the claim is consciously
//     retired. Host-portable because both numbers come from the same host.
//
// With -scale, benchcheck instead checks only the multi-core scaling
// entries — the ones carrying scale_vs/min_scale and/or max_ns_per_op —
// against a run from CI's multi-core runner (the gating shard-scaling
// job). For each such entry it asserts presence, the allocation rules
// above, ns_per_op ≤ max_ns_per_op when set (the single-worker latency
// floor: scaling must not be bought by slowing workers=1 down), and
// ns_per_op(scale_vs) / ns_per_op ≥ min_scale — both sides measured within
// the same run on the same host, so the ratio is host-portable even though
// the raw numbers are not. This is what gates the shard scheduler's ≥2×
// workers=1→4 claim.
//
// A single -benchtime=1x iteration cannot tell a one-time lazy-init
// allocation from a per-op one (both show as allocs/op over N=1), so CI
// feeds benchcheck two runs: the full 1x smoke (presence) plus a
// -benchtime=100x pass of just the baseline benchmarks, whose amortized
// numbers drive the allocation and speed checks. When several input files
// are given, later files override earlier results per benchmark.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem ./... > bench.out
//	go test -run '^$' -bench 'EnvironmentResponse|ExtractorCapture|EngineScoringWorkers' \
//	    -benchtime=100x -benchmem . > bench-precise.out
//	go run ./cmd/benchcheck -baseline BENCH_baseline.json bench.out bench-precise.out
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

type baselineEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// PrevNsPerOp and MinSpeedup, when both set, assert that this baseline
	// preserves a recorded optimization: ns_per_op must be at least
	// MinSpeedup× faster than PrevNsPerOp (both measured on the baseline
	// host).
	PrevNsPerOp float64 `json:"prev_ns_per_op,omitempty"`
	MinSpeedup  float64 `json:"min_speedup,omitempty"`
	// ScaleVs and MinScale, when both set, mark a multi-core scaling gate
	// checked only under -scale: this benchmark's measured ns/op must be at
	// least MinScale× below ScaleVs's within the same run. MaxNsPerOp,
	// when set, additionally bounds this benchmark's measured ns/op under
	// -scale — the single-worker latency floor of the scaling gate.
	ScaleVs    string  `json:"scale_vs,omitempty"`
	MinScale   float64 `json:"min_scale,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
}

type baseline struct {
	Comment    string          `json:"comment"`
	Host       string          `json:"host"`
	Benchmarks []baselineEntry `json:"benchmarks"`
}

type result struct {
	nsPerOp     float64
	allocsPerOp float64
	hasAllocs   bool
}

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(lines *bufio.Scanner) (map[string]result, error) {
	out := make(map[string]result)
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix: BenchmarkFoo/bar-8 → BenchmarkFoo/bar.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := result{}
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.nsPerOp = v
			case "allocs/op":
				r.allocsPerOp = v
				r.hasAllocs = true
			}
		}
		if r.nsPerOp > 0 {
			out[name] = r
		}
	}
	return out, lines.Err()
}

// cachedNaivePair maps a cached benchmark to its naive reference within the
// same group: .../cached/xyz ↔ .../naive/xyz.
func cachedNaivePair(name string) (string, bool) {
	if !strings.Contains(name, "/cached/") {
		return "", false
	}
	return strings.Replace(name, "/cached/", "/naive/", 1), true
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON path")
	scaleMode := flag.Bool("scale", false,
		"check only the multi-core scaling entries (scale_vs/min_scale/max_ns_per_op) against a multi-core run")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	byName := make(map[string]baselineEntry, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}

	got := make(map[string]result)
	merge := func(in *bufio.Scanner) error {
		in.Buffer(make([]byte, 1024*1024), 1024*1024)
		parsed, err := parseBench(in)
		if err != nil {
			return err
		}
		for k, v := range parsed {
			got[k] = v
		}
		return nil
	}
	if flag.NArg() == 0 {
		if err := merge(bufio.NewScanner(os.Stdin)); err != nil {
			return fmt.Errorf("parse bench output: %w", err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = merge(bufio.NewScanner(f))
		f.Close()
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark results in input (pipe `go test -bench` output in)")
	}

	var failures []string
	checkAllocs := func(b baselineEntry, r result) {
		if !r.hasAllocs {
			return
		}
		switch {
		case b.AllocsPerOp == 0 && r.allocsPerOp != 0:
			failures = append(failures, fmt.Sprintf(
				"%s: %v allocs/op, baseline is allocation-free (0)", b.Name, r.allocsPerOp))
		case b.AllocsPerOp > 0 && r.allocsPerOp > 2*b.AllocsPerOp:
			failures = append(failures, fmt.Sprintf(
				"%s: %v allocs/op, > 2× baseline %v", b.Name, r.allocsPerOp, b.AllocsPerOp))
		}
	}

	if *scaleMode {
		checked := 0
		for _, b := range base.Benchmarks {
			if b.ScaleVs == "" && b.MaxNsPerOp == 0 {
				continue
			}
			checked++
			r, ok := got[b.Name]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: missing from scaling run (perf harness rot?)", b.Name))
				continue
			}
			checkAllocs(b, r)
			if b.MaxNsPerOp > 0 && r.nsPerOp > b.MaxNsPerOp {
				failures = append(failures, fmt.Sprintf(
					"%s: %v ns/op, above the %v ns/op latency bound (scaling must not slow the single-worker path)",
					b.Name, r.nsPerOp, b.MaxNsPerOp))
			}
			if b.ScaleVs != "" && b.MinScale > 0 {
				ref, okRef := got[b.ScaleVs]
				if !okRef || ref.nsPerOp <= 0 || r.nsPerOp <= 0 {
					failures = append(failures, fmt.Sprintf(
						"%s: scaling reference %s missing from run", b.Name, b.ScaleVs))
				} else if ratio := ref.nsPerOp / r.nsPerOp; ratio < b.MinScale {
					failures = append(failures, fmt.Sprintf(
						"%s: only %.2f× faster than %s (%v vs %v ns/op), < required %v×",
						b.Name, ratio, b.ScaleVs, r.nsPerOp, ref.nsPerOp, b.MinScale))
				}
			}
		}
		if checked == 0 {
			return fmt.Errorf("no scaling entries (scale_vs/max_ns_per_op) in %s", *baselinePath)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "FAIL:", f)
			}
			return fmt.Errorf("%d scaling regression(s) against %s", len(failures), *baselinePath)
		}
		fmt.Printf("benchcheck: %d scaling entries OK against %s\n", checked, *baselinePath)
		return nil
	}

	for _, b := range base.Benchmarks {
		if b.PrevNsPerOp > 0 && b.MinSpeedup > 0 {
			if b.NsPerOp <= 0 || b.PrevNsPerOp/b.NsPerOp < b.MinSpeedup {
				failures = append(failures, fmt.Sprintf(
					"%s: baseline %v ns/op is only %.2f× its recorded predecessor %v ns/op, < required %v×",
					b.Name, b.NsPerOp, b.PrevNsPerOp/b.NsPerOp, b.PrevNsPerOp, b.MinSpeedup))
			}
		}
		r, ok := got[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from run (perf harness rot?)", b.Name))
			continue
		}
		checkAllocs(b, r)
		naiveName, isCached := cachedNaivePair(b.Name)
		if !isCached || b.NsPerOp < 1000 {
			continue
		}
		naiveBase, okBase := byName[naiveName]
		naiveRun, okRun := got[naiveName]
		if !okBase || !okRun || naiveBase.NsPerOp <= 0 || r.nsPerOp <= 0 {
			continue
		}
		baseSpeedup := naiveBase.NsPerOp / b.NsPerOp
		runSpeedup := naiveRun.nsPerOp / r.nsPerOp
		if runSpeedup < baseSpeedup/2 {
			failures = append(failures, fmt.Sprintf(
				"%s: cached speedup %.1f× vs naive, < half the baseline %.1f× (>2× cached-path slowdown)",
				b.Name, runSpeedup, baseSpeedup))
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Printf("benchcheck: %d baseline benchmarks OK against %s\n", len(base.Benchmarks), *baselinePath)
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
