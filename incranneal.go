// Package incranneal is the public facade of the incremental
// quantum(-inspired) annealing library for large-scale multiple query
// optimisation (MQO), reproducing Schönberger, Trummer and Mauerer
// (SIGMOD 2025).
//
// The library solves the classical MQO plan-selection problem — pick one
// execution plan per query so that total execution cost minus inter-plan
// cost savings is minimal — at scales far beyond the variable capacity of
// any single annealing device, by
//
//  1. compressing the MQO instance into a partitioning graph and bisecting
//     it recursively *on the annealer itself* (weighted graph-partitioning
//     QUBO), and
//  2. solving the resulting partial problems incrementally under dynamic
//     search steering (DSS), which re-applies the savings the partitioning
//     discarded by adjusting plan costs between partial solves.
//
// A minimal session:
//
//	p, _ := incranneal.NewProblem([][]float64{{9, 10}, {9, 10}}, []incranneal.Saving{{P1: 1, P2: 3, Value: 5}})
//	out, _ := incranneal.Solve(context.Background(), p, incranneal.Options{})
//	fmt.Println(out.Cost, out.Solution.Selected)
//
// Devices: the library ships a software Digital Annealer (DeviceDA, the
// default), a hybrid quantum annealer simulator (DeviceHQA), classical
// simulated annealing (DeviceSA) and a Vector Annealer simulator
// (DeviceVA); any custom solver.Solver can be plugged in through
// Options.CustomDevice. Problems within device capacity are
// solved directly; larger problems flow through the partition + DSS
// pipeline automatically.
package incranneal

import (
	"context"
	"fmt"

	"incranneal/internal/core"
	"incranneal/internal/da"
	"incranneal/internal/hqa"
	"incranneal/internal/mqo"
	"incranneal/internal/sa"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
	"incranneal/internal/va"
	"incranneal/internal/workload"
)

// Problem is an immutable MQO instance; see NewProblem.
type Problem = mqo.Problem

// Saving is a cost-sharing opportunity between two plans of different
// queries.
type Saving = mqo.Saving

// Solution assigns one plan to each query.
type Solution = mqo.Solution

// Outcome reports a completed solve: the solution, its cost and pipeline
// statistics (partitions, discarded and re-applied savings, iterations).
type Outcome = core.Outcome

// NewProblem constructs an MQO problem from per-query plan costs and
// inter-plan savings. planCosts[q] lists the execution costs of query q's
// plans; global plan indices number plans consecutively query by query.
func NewProblem(planCosts [][]float64, savings []Saving) (*Problem, error) {
	return mqo.NewProblem(planCosts, savings)
}

// PaperExample returns the four-query running example of the paper
// (Fig. 2), whose optimum costs 25.
func PaperExample() *Problem { return mqo.PaperExample() }

// Device selects the annealing backend.
type Device int

const (
	// DeviceDA is the software Digital Annealer (default): parallel-trial
	// Monte Carlo with dynamic offset escape and an 8,192-variable
	// capacity, after Aramon et al. 2019.
	DeviceDA Device = iota
	// DeviceHQA is the hybrid quantum annealer simulator: classical
	// orchestration around a noisy, capacity-limited simulated QPU.
	DeviceHQA
	// DeviceSA is classical simulated annealing without a capacity limit.
	DeviceSA
	// DeviceVA is the NEC Vector Annealer simulator: lockstep replica
	// annealing with resampling (assessed by the paper and found dominated
	// by the DA).
	DeviceVA
)

// Strategy selects how problems beyond device capacity are processed.
type Strategy int

const (
	// StrategyIncremental is the paper's method: annealer-backed
	// partitioning, then sequential solves steered by DSS (default).
	StrategyIncremental Strategy = iota
	// StrategyParallel solves partitions independently and merges.
	StrategyParallel
	// StrategyDefault hands the unpartitioned QUBO to the device's own
	// large-problem mode (vendor decomposition).
	StrategyDefault
)

// Options configures Solve. The zero value uses the Digital Annealer with
// the incremental strategy and the paper's run count.
type Options struct {
	// Device selects the annealing backend; DeviceDA if unset.
	Device Device
	// CustomDevice overrides Device with any solver implementation.
	CustomDevice solver.Solver
	// Strategy selects the processing mode; StrategyIncremental if unset.
	Strategy Strategy
	// Capacity overrides the device's variable capacity for partitioning
	// (useful to emulate smaller devices); zero uses the device's own.
	Capacity int
	// Runs is the number of annealing runs per (partial) problem; zero
	// means 16, the paper's setting.
	Runs int
	// TotalSweeps is the overall annealing iteration budget divided across
	// partitions; each partitioning bisection anneals at the same
	// per-variable rate. Zero uses device defaults.
	TotalSweeps int
	// Seed makes the pipeline deterministic.
	Seed int64
	// Parallelism bounds the worker goroutines used for independent
	// annealing runs and concurrent partition solves. Zero uses every
	// core (GOMAXPROCS), negative forces sequential execution. Results
	// are identical for every setting: per-run RNG streams derive from
	// Seed before any work is dispatched.
	Parallelism int
	// DisableDSS turns dynamic search steering off (ablation).
	DisableDSS bool
	// PostProcessParses configures Algorithm 1 (0 = the paper's 4 parses,
	// negative disables post-processing).
	PostProcessParses int
	// FailFast aborts the solve on a terminal device failure instead of
	// completing the affected partial problem by deterministic greedy
	// repair. With the default (false), failures are recorded in
	// Outcome.Degradations and the solve always returns a complete,
	// valid solution.
	FailFast bool
	// Cache enables cross-solve reuse for recurring workloads: solves of
	// structurally identical problems (same shape, possibly different
	// costs) skip recursive partitioning and rebind cached encoding
	// skeletons instead of preparing fresh ones. Share one Cache across
	// the sessions that should reuse each other's work; nil disables
	// caching. Cold solves (cache miss or nil Cache) are bit-identical to
	// an uncached solve.
	Cache *Cache
	// WarmStartDrift additionally seeds annealing runs from the cached
	// incumbent when the relative weight drift against the cached solve is
	// within (0, WarmStartDrift]. Zero (default) disables warm starts.
	// Drift-0 hits stay cold-seeded so identical re-solves remain
	// bit-identical.
	WarmStartDrift float64
}

func (o Options) device() solver.Solver {
	if o.CustomDevice != nil {
		return o.CustomDevice
	}
	switch o.Device {
	case DeviceHQA:
		return &hqa.Solver{}
	case DeviceSA:
		return &sa.Solver{}
	case DeviceVA:
		return &va.Solver{}
	default:
		return &da.Solver{}
	}
}

func (o Options) coreOptions() core.Options {
	runs := o.Runs
	if runs == 0 {
		runs = 16
	}
	return core.Options{
		Device:            o.device(),
		Capacity:          o.Capacity,
		Runs:              runs,
		TotalSweeps:       o.TotalSweeps,
		Seed:              o.Seed,
		Parallelism:       o.Parallelism,
		DisableDSS:        o.DisableDSS,
		PostProcessParses: o.PostProcessParses,
		FailFast:          o.FailFast,
		Cache:             o.Cache,
		WarmStartDrift:    o.WarmStartDrift,
	}
}

// Solve optimises p end to end: it selects one plan per query minimising
// total cost minus realised savings, partitioning the problem and steering
// the search per the configured strategy whenever p exceeds the device
// capacity. It is shorthand for running a Session to completion; callers
// that want progress visibility use NewSession directly.
func Solve(ctx context.Context, p *Problem, opt Options) (*Outcome, error) {
	sess, err := NewSession(p, opt)
	if err != nil {
		return nil, err
	}
	return sess.Run(ctx)
}

// Incumbent is one point of an in-progress solve's incumbent-solution
// trajectory, streamed by Session.Incumbents.
type Incumbent = core.Incumbent

// Session is the lifecycle handle on a single MQO solve: Start it, consume
// the incumbent stream while partial problems merge, and Wait for the
// final Outcome. Results are bit-identical to the one-shot Solve with the
// same problem, options and seed.
type Session struct {
	inner *core.Session
}

// NewSession prepares a solve of p under opt without starting it.
func NewSession(p *Problem, opt Options) (*Session, error) {
	if p == nil {
		return nil, fmt.Errorf("incranneal: nil problem")
	}
	sess := core.NewSession(p, opt.coreOptions())
	switch opt.Strategy {
	case StrategyParallel:
		sess.Strategy = core.StrategyParallel
	case StrategyDefault:
		sess.Strategy = core.StrategyDefault
	default:
		sess.Strategy = core.StrategyIncremental
	}
	return &Session{inner: sess}, nil
}

// Start launches the solve in the background; cancelling ctx cancels it.
func (s *Session) Start(ctx context.Context) error { return s.inner.Start(ctx) }

// Incumbents streams incumbent points while the solve runs. The channel
// closes after the final point; slow consumers drop old points, never the
// final one.
func (s *Session) Incumbents() <-chan Incumbent { return s.inner.Incumbents() }

// Wait blocks until the solve completes and returns its Outcome.
func (s *Session) Wait() (*Outcome, error) { return s.inner.Wait() }

// Run is Start followed by Wait.
func (s *Session) Run(ctx context.Context) (*Outcome, error) { return s.inner.Run(ctx) }

// Problem returns the problem this session solves.
func (s *Session) Problem() *Problem { return s.inner.Problem() }

// ApplyDelta derives a fresh, unstarted Session solving this session's
// problem with d applied. With Options.Cache set, the cached partitioning,
// incumbent and encoding skeletons migrate to the delta'd problem, so the
// derived session re-partitions only the touched region. The receiver is
// unaffected and may be running or finished.
func (s *Session) ApplyDelta(d Delta) (*Session, error) {
	inner, err := s.inner.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// Cache is a cross-solve cache for recurring workloads; see Options.Cache.
// Safe for concurrent use by any number of sessions.
type Cache = solvecache.Cache

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats = solvecache.Stats

// CacheOutcome describes one solve's cache interaction (Outcome.Cache).
type CacheOutcome = core.CacheOutcome

// NewCache returns a cross-solve cache bounded to maxEntries distinct
// problem structures (LRU eviction); maxEntries <= 0 selects the default
// bound.
func NewCache(maxEntries int) *Cache { return solvecache.New(maxEntries) }

// Delta is an incremental edit to an MQO problem, applied through
// Session.ApplyDelta: plan-cost and saving-value adjustments, query
// removals and query additions.
type Delta = mqo.Delta

// AddedQuery describes one query a Delta introduces.
type AddedQuery = mqo.AddedQuery

// Greedy returns the naive per-query cheapest-plan selection and its total
// cost — the baseline MQO improves on (Example 3.1).
func Greedy(p *Problem) (*Solution, float64) {
	s := mqo.GreedySolution(p)
	return s, s.Cost(p)
}

// Cost evaluates a solution's total cost on p (plan costs minus realised
// savings).
func Cost(p *Problem, s *Solution) float64 { return s.Cost(p) }

// SweepConfig re-exports the parameter-sweep generator configuration
// (Sec. 5.2.1 of the paper).
type SweepConfig = workload.SweepConfig

// GenerateSweep produces a synthetic MQO instance with controlled query
// communities and savings densities.
func GenerateSweep(cfg SweepConfig) (*Problem, error) {
	in, err := workload.GenerateSweep(cfg)
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}

// BenchConfig re-exports the benchmark-derived generator configuration
// (Sec. 5.3.1 of the paper).
type BenchConfig = workload.BenchConfig

// Benchmark names accepted by GenerateBenchmark.
const (
	BenchmarkTPCH = "tpch"
	BenchmarkLDBC = "ldbc"
	BenchmarkJOB  = "job"
)

// GenerateBenchmark extrapolates an MQO scenario from one of the built-in
// query-optimisation benchmark catalogues (tpch, ldbc, job).
func GenerateBenchmark(benchmark string, queries, ppq int, seed int64) (*Problem, error) {
	cat, ok := workload.Catalogues()[benchmark]
	if !ok {
		return nil, fmt.Errorf("incranneal: unknown benchmark %q (want tpch, ldbc or job)", benchmark)
	}
	in, err := workload.GenerateBench(workload.BenchConfig{Catalogue: cat, Queries: queries, PPQ: ppq, Seed: seed})
	if err != nil {
		return nil, err
	}
	return in.Problem, nil
}
