// Package core implements the paper's contribution: incremental
// quantum(-inspired) annealing for large-scale MQO. It combines the
// partitioning phase (internal/partition) with three processing strategies
// over the resulting partial problems:
//
//   - Incremental (Sec. 4.2, Algorithms 2 and 3): partial problems are
//     solved one after another; after each solve, dynamic search steering
//     (DSS) re-applies initially discarded savings by reducing the plan
//     costs of still-unsolved partial problems, steering their optimisation
//     towards the incumbent global solution. This is the paper's method.
//   - Parallel: partial problems are solved independently and merged —
//     faster, but blind to inter-partition savings.
//   - Default: the device's own large-problem handling (e.g. the DA's
//     vendor partitioning) on the unpartitioned QUBO.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/partition"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
)

// Options configures an MQO solve.
type Options struct {
	// Device is the quantum(-inspired) annealer for the MQO phase.
	// Required.
	Device solver.Solver
	// PartitionSolver is the device for the partitioning phase's bisection
	// QUBOs; nil reuses Device (the paper's "multiple uses" of the same
	// annealer).
	PartitionSolver solver.Solver
	// Capacity overrides the partial-problem variable limit; zero uses the
	// device capacity (or leaves the problem unpartitioned for
	// capacity-free devices).
	Capacity int
	// Runs is the number of annealing runs per (partial) problem; zero
	// uses the device default (16 in the paper's setup).
	Runs int
	// TotalSweeps is the overall annealing iteration budget. The
	// incremental and parallel strategies divide it evenly across partial
	// problems so that the total matches an unpartitioned solve, as in the
	// paper's constant-budget comparisons. Each bisection of the
	// partitioning phase anneals at the same per-variable rate:
	// ⌊TotalSweeps·n_b/NumPlans⌋ sweeps for an n_b-query subset (see
	// partition.Options.Sweeps). Zero uses device defaults per partial
	// problem and per bisection.
	TotalSweeps int
	// Seed makes the full pipeline deterministic.
	Seed int64
	// PostProcessParses and MinPartFraction forward to
	// partition.Options; see there.
	PostProcessParses int
	MinPartFraction   float64
	// Parallelism bounds worker goroutines throughout the pipeline: it
	// caps concurrent partial-problem solves in the parallel strategy and
	// is forwarded to the device as Request.Parallelism, bounding its
	// run-level worker pool. Zero means GOMAXPROCS, negative forces
	// sequential execution. Any setting yields identical results.
	Parallelism int
	// DisableDSS turns dynamic search steering off in the incremental
	// strategy (ablation): partial problems are still solved and merged,
	// but discarded savings are never re-applied, so no partial problem
	// depends on another and all of them form one wave.
	DisableDSS bool
	// FailFast restores the pre-degradation contract: a terminal device
	// failure aborts the solve with an error instead of completing the
	// affected partial problem by greedy repair. Also forwarded to the
	// partitioning phase (see partition.Options.FailFast).
	FailFast bool
	// Cache is the cross-solve cache (internal/solvecache): fingerprinted
	// partitionings, pooled encoding skeletons and warm-start incumbents,
	// shared by every solve handed the same handle. Nil disables
	// cross-solve reuse. Cache misses are bit-identical to running without
	// a cache, and a structure hit on bit-identical weights reproduces the
	// original cold solve exactly; a hit on *drifted* weights reuses the
	// shape-derived partitioning instead of re-bisecting under the new
	// weights — the cache's core trade, gated by the warm-start ablation
	// figure (mqobench -fig warm). Only the incremental strategy consults
	// the cache.
	Cache *solvecache.Cache
	// CheckpointFunc, when set, receives a consistent restart point after
	// partial-problem merges of a partitioned incremental solve (the only
	// checkpointable strategy; unpartitioned solves and the other
	// strategies never call it). Checkpoints are deep copies delivered
	// from the solve's serial merge path — the callback must not block for
	// long, but may retain them indefinitely. See Checkpoint.
	CheckpointFunc func(*Checkpoint)
	// CheckpointInterval throttles CheckpointFunc deliveries: at least
	// this much time passes between two calls (the first merge always
	// delivers). Zero delivers after every merge. Finished-sub state
	// accumulates regardless, so a throttled delivery is still complete.
	CheckpointInterval time.Duration
	// Resume restarts a partitioned incremental solve from a Checkpoint:
	// partitioning is rebuilt from the checkpoint's query sets (no
	// bisection runs), finished partial problems replay their recorded
	// selections instead of solving, and the remainder solve normally. The
	// resumed Outcome is bit-identical to the uninterrupted run (costs,
	// selections, sweeps, degradations — not wall-clock timings). The
	// checkpoint must come from the same problem, seed and capacity; a
	// mismatch fails the solve. Resume disables the cross-solve cache for
	// this solve, so a resumed run never picks up warm starts the
	// interrupted run did not have.
	Resume *Checkpoint
	// WarmStartDrift enables warm starts on structure-cache hits: when the
	// relative weight drift against the cached solve (solvecache.
	// WeightDrift) is positive and at most this bound, part of every
	// partial problem's annealing runs (solver.Request.WarmRuns) start
	// from the cached incumbent's plan selections instead of random
	// states. Zero disables warm starts. Exact recurrences (drift 0)
	// always run cold-seeded, so re-solving an identical problem stays
	// bit-identical to the first solve.
	WarmStartDrift float64

	// onMerge, when set, receives the incumbent after every partial-problem
	// merge of a partitioned incremental solve, from the serial merge
	// barrier. Only Session sets it; it observes and never feeds back.
	onMerge func(Incumbent)
}

// Outcome reports a completed MQO solve.
type Outcome struct {
	// Solution is the complete, validated plan selection.
	Solution *mqo.Solution
	// Cost is the solution's total cost on the original problem.
	Cost float64
	// Strategy names the processing strategy used.
	Strategy string
	// NumPartitions is the number of partial problems processed (1 when
	// the problem fits the device directly).
	NumPartitions int
	// DiscardedSavings is the savings magnitude crossing partition
	// boundaries (0 without partitioning).
	DiscardedSavings float64
	// ReappliedSavings is the savings magnitude DSS re-applied through
	// plan-cost adjustments (incremental strategy only).
	ReappliedSavings float64
	// Sweeps is the total number of annealing iterations performed.
	Sweeps int
	// Elapsed is the wall-clock optimisation time.
	Elapsed time.Duration
	// Timings breaks Elapsed down by pipeline phase.
	Timings PhaseTimings
	// Degradations lists the partial problems whose device solves failed
	// terminally and were completed by greedy repair instead, in
	// partial-problem order. Empty for a fully-annealed solve; see
	// Options.FailFast to abort on failure instead.
	Degradations []Degradation
	// DAG describes the DSS dependency graph the incremental strategy
	// scheduled its partial problems over, nil for the other strategies
	// and for solves with fewer than two partial problems.
	DAG *DAGStats
	// Cache reports the cross-solve cache's part in this solve; nil when
	// no cache was configured or the solve never reached the partitioned
	// incremental phase.
	Cache *CacheOutcome
}

// PhaseTimings attributes wall-clock time to the pipeline phases. For
// strategies that overlap phases (the incremental strategy materialises the
// next encoding while the device anneals the current one), the per-phase
// durations measure the work itself and may sum to more than Elapsed.
type PhaseTimings struct {
	// Partition is the partitioning phase (graph build, recursive bisection,
	// post-processing).
	Partition time.Duration
	// Encode covers QUBO skeleton preparation and every (re-)materialisation.
	Encode time.Duration
	// Anneal is device solve time.
	Anneal time.Duration
	// Decode covers sample decoding, repair, and solution merging.
	Decode time.Duration
	// DSS is the time spent in dynamic search steering passes (Algorithm 3):
	// scanning pending discarded savings and adjusting plan costs. Zero for
	// the parallel and default strategies, and under -dss=false.
	DSS time.Duration
}

// Total sums the per-phase durations.
func (t PhaseTimings) Total() time.Duration {
	return t.Partition + t.Encode + t.Anneal + t.Decode + t.DSS
}

func (o Options) capacity() int {
	if o.Capacity > 0 {
		return o.Capacity
	}
	if o.Device != nil {
		return o.Device.Capacity()
	}
	return 0
}

// needsPartitioning reports whether p exceeds the effective capacity.
func (o Options) needsPartitioning(p *mqo.Problem) bool {
	c := o.capacity()
	return c > 0 && p.NumPlans() > c
}

// partitionOptions assembles the partitioning phase's options; Partition
// and the cache-hit Refit path must run under the same settings so a refit
// re-bisection behaves exactly like a fresh one.
func (o Options) partitionOptions() partition.Options {
	ps := o.PartitionSolver
	if ps == nil {
		ps = o.Device
	}
	return partition.Options{
		Capacity:          o.capacity(),
		Solver:            ps,
		Runs:              o.Runs,
		Sweeps:            o.TotalSweeps, // each bisection takes its per-variable share
		Seed:              o.Seed,
		PostProcessParses: o.PostProcessParses,
		MinPartFraction:   o.MinPartFraction,
		Parallelism:       o.Parallelism,
		FailFast:          o.FailFast,
	}
}

// partitionProblem runs the partitioning phase with o's settings.
func (o Options) partitionProblem(ctx context.Context, p *mqo.Problem) (*partition.Result, error) {
	return partition.Partition(ctx, p, o.partitionOptions())
}

// partitionSweeps returns the sweep budget of the i-th of n partial
// problems: TotalSweeps divided evenly, with the remainder distributed one
// sweep each over the first TotalSweeps mod n partitions so the per-partition
// budgets sum exactly to TotalSweeps (constant-budget comparisons previously
// ran up to n−1 sweeps under budget).
func (o Options) partitionSweeps(n, i int) int {
	if o.TotalSweeps <= 0 {
		return 0 // device default
	}
	if n < 1 {
		n = 1
	}
	s := o.TotalSweeps / n
	if i < o.TotalSweeps%n {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// subTimings carries the per-phase durations of one partial-problem solve.
type subTimings struct {
	anneal, decode time.Duration
}

// solveEncoded solves one already-materialised encoding on the device and
// returns the lowest-cost decoded solution. Because DSS folds every saving
// towards already selected plans into the local costs, the best (adjusted)
// local cost is exactly the marginal cost w.r.t. the current total solution,
// implementing BestIntSol of Algorithm 2.
func solveEncoded(ctx context.Context, dev solver.Solver, enc *encoding.MQOEncoding, runs, sweeps int, seed int64, warm []int8, parallelism int) (*mqo.Solution, int, subTimings, error) {
	var st subTimings
	if err := solver.CheckCapacity(dev, enc.Model); err != nil {
		return nil, 0, st, err
	}
	sink := obs.FromContext(ctx)
	// The device solve is the "anneal" span of the request's trace; without
	// an enclosing span (direct Solve* calls, no trace) the same payload is
	// emitted as the historical flat event, so traces gain structure without
	// changing the un-traced event vocabulary.
	annealCtx, annealSpan := sink.StartSpan(ctx, "anneal")
	t0 := time.Now()
	res, err := dev.Solve(annealCtx, solver.Request{Model: enc.Model, Runs: runs, Sweeps: sweeps, Seed: seed, Parallelism: parallelism, Warm: warm})
	st.anneal = time.Since(t0)
	if err != nil {
		annealSpan.Attr("error", "device").End()
		return nil, 0, st, err
	}
	if sink.Enabled() {
		e := obs.Event{
			Name: "anneal", Device: dev.Name(), Label: obs.LabelFromContext(ctx),
			Dur: st.anneal, Sweeps: res.Sweeps, N: enc.Model.NumVariables(),
		}
		if annealSpan != nil {
			annealSpan.Attr("device", dev.Name()).EndWith(e)
		} else {
			sink.Emit(e)
		}
		if reg := sink.Metrics(); reg != nil {
			reg.Histogram("latency.anneal_ms").Observe(st.anneal.Seconds() * 1e3)
		}
	}
	t0 = time.Now()
	best, bestCost, repaired, err := bestDecoded(enc, res.Samples)
	st.decode = time.Since(t0)
	if err != nil {
		// Shape mismatches are pipeline bugs, not device outages: mark them
		// so the degradation paths re-raise instead of repairing them away.
		return nil, 0, st, &pipelineError{err}
	}
	if best == nil {
		// The device "succeeded" with zero samples (e.g. cancelled before
		// its first sweep, or a fault-injected empty result).
		return nil, res.Sweeps, st, fmt.Errorf("core: device %s returned no samples", dev.Name())
	}
	if sink.Enabled() {
		sink.EmitCtx(ctx, obs.Event{
			Name: "decode", Device: dev.Name(), Label: obs.LabelFromContext(ctx),
			Dur: st.decode, N: len(res.Samples), Extra: float64(repaired), Value: bestCost,
		})
		if reg := sink.Metrics(); reg != nil {
			reg.Counter("decode.samples").Add(float64(len(res.Samples)))
			reg.Counter("decode.repaired").Add(float64(repaired))
			reg.Histogram("latency.decode_ms").Observe(st.decode.Seconds() * 1e3)
		}
	}
	return best, res.Sweeps, st, nil
}

// bestDecoded scans the samples in order and returns the lowest-cost decoded
// solution on enc.Problem (first strictly-better sample wins, exactly like
// decoding every sample and comparing costs), materialising a Solution only
// when a sample improves on the incumbent. Valid samples — the common case —
// are costed directly from the selection bitset with the same float-operation
// order as Solution.Cost; only constraint-violating samples go through the
// repair path. All per-sample scratch is reused, so the loop is
// allocation-free apart from the winning solutions. The third return is the
// number of samples that needed repair (the invalid-sample rate metric).
func bestDecoded(enc *encoding.MQOEncoding, samples []solver.Sample) (*mqo.Solution, float64, int, error) {
	p := enc.Problem
	n := p.NumPlans()
	selected := make([]bool, n)
	chosen := make([]bool, n)
	cur := mqo.NewSolution(p)
	var best *mqo.Solution
	bestCost := 0.0
	repaired := 0
	for _, s := range samples {
		if len(s.Assignment) != n {
			return nil, 0, repaired, fmt.Errorf("core: sample has %d variables, problem has %d plans", len(s.Assignment), n)
		}
		for i, x := range s.Assignment {
			selected[i] = x != 0
		}
		valid := true
		var c float64
		for q := 0; q < p.NumQueries(); q++ {
			first, count := mqo.Unassigned, 0
			for _, pl := range p.Plans(q) {
				if selected[pl] {
					if count == 0 {
						first = pl
					}
					count++
				}
			}
			if count != 1 {
				valid = false
				break
			}
			cur.Selected[q] = first
			c += p.Cost(first)
		}
		if valid {
			for _, sv := range p.Savings() {
				if selected[sv.P1] && selected[sv.P2] {
					c -= sv.Value
				}
			}
		} else {
			repaired++
			mqo.RepairInto(p, selected, cur, chosen)
			c = cur.CostBuffered(p, selected)
		}
		if best == nil || c < bestCost {
			if best == nil {
				best = cur.Clone()
			} else {
				copy(best.Selected, cur.Selected)
			}
			bestCost = c
		}
	}
	return best, bestCost, repaired, nil
}

// finalize assembles an Outcome, validating the solution against p.
func finalize(p *mqo.Problem, sol *mqo.Solution, strategy string, start time.Time) (*Outcome, error) {
	if err := sol.Validate(p); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid solution: %w", strategy, err)
	}
	if !sol.Complete() {
		return nil, fmt.Errorf("core: %s produced incomplete solution", strategy)
	}
	return &Outcome{
		Solution: sol,
		Cost:     sol.Cost(p),
		Strategy: strategy,
		Elapsed:  time.Since(start),
	}, nil
}

func parallelism(o Options) int {
	return solver.Workers(o.Parallelism)
}

// splitWorkers divides a worker budget over n concurrent device solves,
// distributing the remainder one worker each over the first budget mod n
// solves (the partitionSweeps discipline) so the shares sum exactly to the
// budget whenever n <= workers. Shares that would round to zero become -1 —
// the solver.Workers encoding for "sequential" — and boundedGroup's
// concurrency cap keeps the goroutine total at the budget in that regime
// too. Results never depend on the split: per-run seeds are pre-derived.
func splitWorkers(workers, n int) []int {
	if n < 1 {
		return nil
	}
	share := make([]int, n)
	q, r := workers/n, workers%n
	for i := range share {
		w := q
		if i < r {
			w++
		}
		if w < 1 {
			w = -1 // sequential runs inside this solve
		}
		share[i] = w
	}
	return share
}

// boundedGroup runs fns with at most limit concurrent goroutines and
// returns the first error.
func boundedGroup(limit int, fns []func() error) error {
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, fn := range fns {
		fn := fn
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}
