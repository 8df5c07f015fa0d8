// Command perfbench is the repository's benchmark: three workloads that
// each stress a different part of the incremental MQO pipeline and its
// mqoserve daemon, with end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. See README.md for the
// workloads, the metrics and how they relate.
//
//	perfbench --workload cold-large --seed 1 --seconds 30 --trace 0
//	perfbench --workload serve-mixed --seed 1 --seconds 30 --steady 10
//	perfbench --compare base.jsonl head.jsonl
//
// A run prints a record line (host, commit, seed and extra figures) and,
// as its last line, the result: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"incranneal/internal/solvecache"
)

// processStart anchors setup_s: set-up runs from process start to the
// first timed operation.
var processStart = time.Now()

// runLimit bounds a whole run, so a hang ends with an error instead of
// outliving the caller's deadline.
const runLimit = 170 * time.Second

// result is the last line of a run.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record is everything a run knows about itself; steady and compare modes
// read it back.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     int       `json:"trace"`
	Commit    string    `json:"commit"`
	Host      host      `json:"host"`
	Steal     float64   `json:"host_steal_frac"`
	LagP90    float64   `json:"loadgen_lag_p90_ms"`
	Samples   int       `json:"samples"`
	LatP90    *float64  `json:"lat_p90_ms"` // nil unless the samples support it
	SetupRuns []float64 `json:"setup_rounds_s"`
	// Per completed operation, in completion order.
	OpLatMs []float64 `json:"op_lat_ms"`
	OpCPUMs []float64 `json:"op_cpu_ms,omitempty"`
	Result  result    `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: cold-large, recurring-drift or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 30, "length of the measurement window")
	trace := fs.Int("trace", 0, "1: traced run, printing per-layer metrics instead of end-to-end ones")
	steady := fs.Int("steady", 0, "repeat the untraced run N times, each in its own process with seeds seed..seed+N-1, and report every end-to-end metric's spread")
	out := fs.String("out", "", "steady mode: append each run's record to this JSONL file")
	bounds := fs.String("bench", "BENCHMARK.json", "steady and compare modes: the benchmark definition holding each metric's bound")
	compare := fs.Bool("compare", false, "compare two JSONL record files given as arguments: base, then head")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("--compare needs two record files")
			break
		}
		err = compareRecords(os.Stdout, *bounds, fs.Arg(0), fs.Arg(1))
	case *steady > 0:
		err = steadyReport(os.Stdout, *bounds, *name, *seed, *seconds, *steady, *out)
	default:
		err = runOnce(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// setupRounds is how often a run sets its workload up; setup_s is the
// median. Every round but the last is torn down again.
const setupRounds = 3

func runOnce(name string, seed int64, seconds, trace int) error {
	setUp, ok := setUps[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	var wr workloadRun
	var setupS []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		var err error
		if wr, err = setUp(ctx, seed); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if r < setupRounds-1 {
			wr.close()
			// Free the round's state before the next one allocates, so the
			// rounds do not stack up in the peak RSS.
			runtime.GC()
		}
	}
	defer wr.close()

	d := time.Duration(seconds) * time.Second
	ticks0, err := readCPUTicks("/proc/stat")
	if err != nil {
		return err
	}
	m := metricSet{}
	var w *window
	if trace == 0 {
		if w, err = wr.measure(ctx, d, nil); err != nil {
			return err
		}
		m.set("setup_s", "s", median(setupS))
		m.set("lat_p50_ms", "ms", zeroNaN(median(w.latMs)))
		m.set("cpu_ms_per_op", "ms", cpuPerOp(w))
		m.set("cost_rel_greedy", "ratio", zeroNaN(mean(w.costRel)))
		m.set("ok_frac", "ratio", float64(w.completed())/float64(max(w.attempted, 1)))
		rss, err := peakRSSMiB("/proc/self/status")
		if err != nil {
			return err
		}
		m.set("peak_rss_mb", "MiB", rss)
	} else {
		if w, err = tracedRun(ctx, m, wr, d); err != nil {
			return err
		}
	}
	ticks1, err := readCPUTicks("/proc/stat")
	if err != nil {
		return err
	}
	steal := stealFrac(ticks0, ticks1)
	lagP90 := zeroNaN(nearestRank(w.lagMs, 0.9))
	if trace == 1 {
		m.set("host.steal_frac", "ratio", steal)
		m.set("loadgen.lag_p90_ms", "ms", lagP90)
	}

	for _, f := range w.failures {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", f)
	}
	res := result{
		Correct:   len(w.failures) == 0 && w.completed() == w.attempted && w.attempted > 0,
		Attempted: max(w.attempted, 1),
		Failed:    max(w.attempted, 1) - w.completed(),
		Metrics:   m,
	}
	rec := record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Commit: commit(),
		Host: currentHost(), Steal: steal, LagP90: lagP90, Samples: w.completed(),
		SetupRuns: setupS, OpLatMs: w.latMs, OpCPUMs: w.opCPUMs, Result: res,
	}
	if tailSupported(w.completed(), 0.9) {
		p90 := nearestRank(w.latMs, 0.9)
		rec.LatP90 = &p90
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(recordLine{&rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// tracedRun measures the first half of the window untraced, for the
// runtime counters and the tracing overhead baseline, and the second half
// with the obs sink and device wrapper on; then it times the layer rungs.
func tracedRun(ctx context.Context, m metricSet, wr workloadRun, d time.Duration) (*window, error) {
	plain, err := wr.measure(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	in := wr.rungs()
	var cache0 solvecache.Stats
	if in.cache != nil {
		cache0 = in.cache.Stats()
	}
	tr := newTracer()
	traced, err := wr.measure(ctx, d-d/2, tr)
	if err != nil {
		return nil, err
	}
	hitFrac, warmFrac := 0.0, 0.0
	if in.cache != nil {
		c := in.cache.Stats()
		if lookups := float64(c.StructureHits + c.StructureMisses - cache0.StructureHits - cache0.StructureMisses); lookups > 0 {
			hitFrac = float64(c.StructureHits-cache0.StructureHits) / lookups
			warmFrac = float64(c.WarmStarts-cache0.WarmStarts) / lookups
		}
	}
	m.set("solvecache.hit_frac", "ratio", hitFrac)
	m.set("solvecache.warm_frac", "ratio", warmFrac)
	ops := plain.completed()
	m.set("runtime.alloc_bytes_per_op", "bytes", perOp(float64(plain.allocBytes), ops))
	m.set("runtime.mallocs_per_op", "count", perOp(float64(plain.mallocs), ops))
	gcFrac := 0.0
	if plain.totalCPU > 0 {
		gcFrac = plain.gcCPU / plain.totalCPU
	}
	m.set("runtime.gc_cpu_frac", "ratio", gcFrac)
	traceLayers(m, tr, traced)

	m.set("serve.queue_ms.p50", "ms", zeroNaN(nearestRank(traced.queueMs, 0.5)))
	m.set("serve.queue_ms.p90", "ms", zeroNaN(nearestRank(traced.queueMs, 0.9)))
	m.set("serve.solve_ms.p50", "ms", zeroNaN(nearestRank(traced.solveMs, 0.5)))
	m.set("serve.solve_ms.p90", "ms", zeroNaN(nearestRank(traced.solveMs, 0.9)))
	m.set("serve.outside_ms.p50", "ms", zeroNaN(nearestRank(traced.outsideMs, 0.5)))
	m.set("serve.queue_depth_max", "count", traced.queueDepthMax)

	m.set("trace.overhead_frac", "ratio", zeroNaN(median(traced.latMs)/median(plain.latMs)-1))

	if err := layerRungs(ctx, m, in); err != nil {
		return nil, err
	}
	// Both halves count towards validity: the result is correct only if
	// every operation of the run verified.
	merged := &window{attempted: plain.attempted + traced.attempted, failures: append(plain.failures, traced.failures...), lagMs: append(plain.lagMs, traced.lagMs...)}
	merged.latMs = append(append(merged.latMs, plain.latMs...), traced.latMs...)
	return merged, nil
}

// cpuPerOp is the median CPU of one operation where operations run one at
// a time, and the window's CPU over its completed operations where they
// overlap (the open loop), since CPU cannot be split between concurrent
// requests.
func cpuPerOp(w *window) float64 {
	if len(w.opCPUMs) > 0 {
		return median(w.opCPUMs)
	}
	return perOp(ms(w.cpu), w.completed())
}

func workloadNames() []string {
	var names []string
	for n := range setUps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
