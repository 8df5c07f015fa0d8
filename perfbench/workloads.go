package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"incranneal"
	"incranneal/internal/bench"
	"incranneal/internal/da"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/solvecache"
	"incranneal/internal/workload"
)

// The solve configuration every workload shares: six plans per query, a
// 512-variable device (so q=256 splits into about five partial problems and
// q=64 fits whole), eight annealing runs and 100 sweeps per plan.
const (
	ppq           = 6
	capacity      = 512
	runs          = 8
	sweepsPerPlan = 100
	// driftRel is the per-epoch weight jitter of recurring problems and
	// warmBound the drift up to which the cache warm-starts them.
	driftRel  = 0.05
	warmBound = 0.2
	// meanDensity is the savings density within every query community:
	// the mean of the interval [0.05, 0.8] the paper's sweep draws it from.
	// Drawing it per community doubled the savings count between
	// instances, and through a run's largest instance made peak RSS
	// differ by 12% between seeds.
	meanDensity = 0.425
)

func parallelism() int { return runtime.NumCPU() }

// setupSeed generates everything set-up builds — warm-up inputs, the
// primed working set, the request pool — so that set-up is the same work
// for every workload seed and setup_s varies only with the host. The
// workload seed drives what the timed operations consume: cold instances,
// weight drifts, the request schedule and every solve seed.
const setupSeed = 0

// derive gives every generated input its own seed from the workload seed:
// a splitmix64 finalisation of the seed mixed with an FNV-1a hash of the
// input's tag and index. The benchmark owns this derivation, so a change to
// the program cannot change the benchmark's inputs through it.
func derive(seed int64, tag string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(fmt.Sprintf("%s/%d", tag, i)) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	z := uint64(seed) ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func sweepInstance(queries int, seed int64, lo, hi float64) (*mqo.Problem, error) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: queries, PPQ: ppq, Communities: 4,
		DensityLow: lo, DensityHigh: hi, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

// verify checks a solution against its problem from first principles: one
// plan of each query's own plans per query, and a reported cost equal to
// the cost recomputed from the plan costs and realised savings.
func verify(p *mqo.Problem, selected []int, cost float64) error {
	if len(selected) != p.NumQueries() {
		return fmt.Errorf("solution selects %d plans for %d queries", len(selected), p.NumQueries())
	}
	chosen := make([]bool, p.NumPlans())
	var total float64
	for q, pl := range selected {
		if pl < 0 || pl >= p.NumPlans() || p.QueryOf(pl) != q {
			return fmt.Errorf("query %d: selected plan %d is not one of its plans", q, pl)
		}
		chosen[pl] = true
		total += p.Cost(pl)
	}
	for _, s := range p.Savings() {
		if chosen[s.P1] && chosen[s.P2] {
			total -= s.Value
		}
	}
	if math.Abs(total-cost) > 1e-9*math.Max(1, math.Abs(total)) {
		return fmt.Errorf("reported cost %v, recomputed %v", cost, total)
	}
	return nil
}

func totalSavings(p *mqo.Problem) float64 {
	var s float64
	for _, sv := range p.Savings() {
		s += sv.Value
	}
	return s
}

// window is what one measurement window observed.
type window struct {
	attempted int
	failures  []string
	// Per completed operation.
	latMs, costRel               []float64
	opCPUMs                      []float64 // closed loop only
	partitions, sweeps           []float64
	discardedFrac, reappliedFrac []float64
	// cpu is the process CPU the open loop's window used.
	cpu time.Duration
	// Allocation and GC counters over the window's operations.
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
	// Open loop only: how late each request was sent, and the server's
	// own timings.
	lagMs                       []float64
	queueMs, solveMs, outsideMs []float64
	queueDepthMax               float64
}

func (w *window) completed() int { return len(w.latMs) }

func (w *window) fail(format string, args ...any) {
	w.failures = append(w.failures, fmt.Sprintf(format, args...))
}

// outcome records one verified operation's solution statistics.
func (w *window) outcome(p *mqo.Problem, latency time.Duration, cost, greedy float64, partitions, sweeps int, discarded, reapplied float64) {
	w.latMs = append(w.latMs, ms(latency))
	w.costRel = append(w.costRel, cost/greedy)
	w.partitions = append(w.partitions, float64(partitions))
	w.sweeps = append(w.sweeps, float64(sweeps))
	if ts := totalSavings(p); ts > 0 {
		w.discardedFrac = append(w.discardedFrac, discarded/ts)
	}
	if discarded > 0 {
		w.reappliedFrac = append(w.reappliedFrac, reapplied/discarded)
	}
}

// runtimeCounters snapshots allocation counters and the runtime's CPU
// accounting, for the allocation and GC share of a window.
type runtimeCounters struct {
	alloc, mallocs  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c := runtimeCounters{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = samples[1].Value.Float64()
	}
	return c
}

func (w *window) addRuntime(a, b runtimeCounters) {
	w.allocBytes += b.alloc - a.alloc
	w.mallocs += b.mallocs - a.mallocs
	w.gcCPU += b.gcCPU - a.gcCPU
	w.totalCPU += b.totalCPU - a.totalCPU
}

// workloadRun is one workload after set-up.
type workloadRun interface {
	// measure runs operations for d. With a tracer the program's obs sink
	// and the device timing wrapper are on.
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	// rungs names the inputs of the traced run's layer rungs.
	rungs() rungInput
	close()
}

// setUps maps each workload to its set-up: input generation, cache
// priming, server start and one untimed warm-up operation per request
// class.
var setUps = map[string]func(ctx context.Context, seed int64) (workloadRun, error){
	"cold-large":      setUpColdLarge,
	"recurring-drift": setUpRecurringDrift,
	"serve-mixed":     setUpServeMixed,
}

// libRun is a closed loop with one client calling the library: the next
// operation starts when the previous one returned.
type libRun struct {
	name string
	seed int64
	// input generates operation i from seed: the workload seed, or
	// setupSeed for the warm-up operation 0.
	input func(i int, seed int64) (*mqo.Problem, incranneal.Options, error)
	cache *solvecache.Cache
	// rungProblem is the problem the layer rungs use: the latest cold
	// instance, or the first structure of the working set.
	rungProblem *mqo.Problem
	next        int
}

func (r *libRun) rungs() rungInput {
	return rungInput{p: r.rungProblem, cache: r.cache, seed: r.seed}
}

func (r *libRun) close() {}

// solveOne generates input i outside the timed section, solves it and
// verifies the solution.
func (r *libRun) solveOne(ctx context.Context, i int, w *window, tr *tracer) error {
	seed := r.seed
	if i == 0 {
		seed = setupSeed
	}
	p, opt, err := r.input(i, seed)
	if err != nil {
		return err
	}
	_, greedy := incranneal.Greedy(p)
	if tr != nil {
		opt.CustomDevice = tr.device(&da.Solver{})
		ctx = obs.NewContext(ctx, tr.sink)
		var span *obs.Span
		ctx, span = tr.sink.StartTrace(ctx, "op", obs.NewTraceID(opt.Seed, r.name))
		defer span.End()
	}
	// Each operation starts from a collected heap, so garbage left by
	// input generation is not charged to it.
	runtime.GC()
	rt0 := readRuntime()
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	w.attempted++
	t0 := time.Now()
	out, err := incranneal.Solve(ctx, p, opt)
	lat := time.Since(t0)
	cpu1, cerr := processCPU()
	if cerr != nil {
		return cerr
	}
	w.addRuntime(rt0, readRuntime())
	if err == nil && ctx.Err() != nil {
		// A solve cut short by the run's deadline returns its best state
		// so far; it is late, not answered.
		err = ctx.Err()
	}
	if err != nil {
		w.fail("%s op %d: %v", r.name, i, err)
		return nil
	}
	if err := verify(p, out.Solution.Selected, out.Cost); err != nil {
		w.fail("%s op %d: %v", r.name, i, err)
		return nil
	}
	w.outcome(p, lat, out.Cost, greedy, out.NumPartitions, out.Sweeps, out.DiscardedSavings, out.ReappliedSavings)
	w.opCPUMs = append(w.opCPUMs, ms(cpu1-cpu0))
	return nil
}

func (r *libRun) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	start := time.Now()
	for time.Since(start) < d {
		r.next++
		if err := r.solveOne(ctx, r.next, w, tr); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// warmUp runs operation 0 untimed and fails set-up if it does not verify.
func (r *libRun) warmUp(ctx context.Context) error {
	w := &window{}
	if err := r.solveOne(ctx, 0, w, nil); err != nil {
		return err
	}
	if len(w.failures) > 0 {
		return fmt.Errorf("warm-up: %s", w.failures[0])
	}
	return nil
}

func libOptions(p *mqo.Problem, seed int64) incranneal.Options {
	return incranneal.Options{
		Capacity: capacity, Runs: runs, TotalSweeps: sweepsPerPlan * p.NumPlans(),
		Seed: seed, Parallelism: parallelism(),
	}
}

// setUpColdLarge: every operation is a cold incremental solve of a
// distinct q=256 sweep instance (4 communities of random sizes), without a
// cache, so partitioning is most of the work.
func setUpColdLarge(ctx context.Context, seed int64) (workloadRun, error) {
	r := &libRun{name: "cold-large", seed: seed}
	r.input = func(i int, seed int64) (*mqo.Problem, incranneal.Options, error) {
		p, err := sweepInstance(256, derive(seed, "cold/instance", i), meanDensity, meanDensity)
		if err != nil {
			return nil, incranneal.Options{}, err
		}
		r.rungProblem = p
		return p, libOptions(p, derive(seed, "cold/solve", i)), nil
	}
	return r, r.warmUp(ctx)
}

// workingSet is the number of problem structures recurring-drift cycles
// through: more than one, far below the cache bound.
const workingSet = 2

// setUpRecurringDrift primes one shared cache with the working set; every
// operation then re-solves one structure after a fresh ±5% weight drift
// with warm starts on, so partitioning is a refit and annealing partial
// problems is most of the work.
func setUpRecurringDrift(ctx context.Context, seed int64) (workloadRun, error) {
	cache := incranneal.NewCache(0)
	bases := make([]*mqo.Problem, workingSet)
	for s := range bases {
		p, err := sweepInstance(256, derive(setupSeed, "recurring/structure", s), meanDensity, meanDensity)
		if err != nil {
			return nil, err
		}
		bases[s] = p
		opt := libOptions(p, derive(setupSeed, "recurring/prime", s))
		opt.Cache = cache
		out, err := incranneal.Solve(ctx, p, opt)
		if err != nil {
			return nil, fmt.Errorf("priming structure %d: %w", s, err)
		}
		if err := verify(p, out.Solution.Selected, out.Cost); err != nil {
			return nil, fmt.Errorf("priming structure %d: %w", s, err)
		}
	}
	r := &libRun{name: "recurring-drift", seed: seed, cache: cache, rungProblem: bases[0]}
	r.input = func(i int, seed int64) (*mqo.Problem, incranneal.Options, error) {
		p, err := bench.DriftWeights(bases[i%workingSet], driftRel, derive(seed, "recurring/drift", i))
		if err != nil {
			return nil, incranneal.Options{}, err
		}
		opt := libOptions(p, derive(seed, "recurring/solve", i))
		opt.Cache = cache
		opt.WarmStartDrift = warmBound
		return p, opt, nil
	}
	return r, r.warmUp(ctx)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
