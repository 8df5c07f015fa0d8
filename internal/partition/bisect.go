package partition

import (
	"context"
	"fmt"
	"sort"
	"time"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
)

// Options configures the partitioning phase.
type Options struct {
	// Capacity is the target device's variable capacity: no partial
	// problem may need more QUBO variables (= execution plans) than this.
	// Required.
	Capacity int
	// Solver is the quantum(-inspired) device used to minimise the
	// bisection QUBOs — the paper's second use of the annealer. When nil,
	// or when a partitioning graph itself exceeds the device capacity,
	// classical simulated annealing is used for that graph.
	Solver solver.Solver
	// Runs is each bisection solve's run count; zero uses the solver
	// default.
	Runs int
	// Sweeps is the annealing budget of the MQO phase the partitioning
	// serves (core's TotalSweeps), not of one bisection: a bisection of an
	// n_b-query subset anneals the share a partial problem of n_b
	// variables gets in that phase, ⌊Sweeps·n_b / NumPlans⌋ with a floor
	// of 1 (see bisectSweeps). Zero uses the device default.
	Sweeps int
	// Seed makes partitioning deterministic.
	Seed int64
	// PostProcessParses is the numParses parameter of Algorithm 1; zero
	// uses the paper's value of 4 and a negative value disables
	// post-processing (ablation).
	PostProcessParses int
	// MinPartFraction bounds the post-processing shrinkage: part1 never
	// drops below this fraction of the subset's queries. Zero means 0.25.
	MinPartFraction float64
	// Parallelism forwards to the bisection solves' Request.Parallelism,
	// bounding each device's run-level worker pool; zero means GOMAXPROCS.
	Parallelism int
	// FailFast aborts the partitioning phase on the first bisection solve
	// error instead of degrading that bisection to the deterministic
	// weight-balancing split.
	FailFast bool
}

func (o *Options) parses() int {
	switch {
	case o.PostProcessParses < 0:
		return 0
	case o.PostProcessParses == 0:
		return 4
	default:
		return o.PostProcessParses
	}
}

// bisectSweeps returns the sweep budget for bisecting a subset of queries
// queries of a problem with plans plans: the MQO phase's per-variable rate,
// Sweeps/plans, times the bisection QUBO's variable count (one per query).
// Zero, the device default, when Sweeps is.
func (o *Options) bisectSweeps(queries, plans int) int {
	if o.Sweeps <= 0 {
		return 0
	}
	s := int(int64(o.Sweeps) * int64(queries) / int64(plans))
	if s < 1 {
		s = 1
	}
	return s
}

func (o *Options) minSize(n int) int {
	f := o.MinPartFraction
	if f <= 0 {
		f = 0.25
	}
	m := int(f * float64(n))
	if m < 1 {
		m = 1
	}
	return m
}

// Result is the outcome of partitioning an MQO problem.
type Result struct {
	// SubProblems are the capacity-conforming partial problems, ordered by
	// descending plan count so incremental processing anchors the global
	// solution on the largest partial solution first.
	SubProblems []*mqo.SubProblem
	// QuerySets holds the parent-problem query indices of each partial
	// problem, aligned with SubProblems.
	QuerySets [][]int
	// Bisections counts annealer-backed graph bisections performed.
	Bisections int
	// DiscardedSavings is the total magnitude of savings crossing
	// partition boundaries — the information DSS later re-applies. Each
	// crossing saving is counted once.
	DiscardedSavings float64
	// DegradedBisections counts bisections whose annealer solve failed (or
	// returned no samples) and that fell back to the deterministic
	// weight-balancing split instead of aborting the phase.
	DegradedBisections int
}

// Partition splits p into partial problems that each fit the device
// capacity, using annealer-backed weighted graph bisection (Sec. 4.1.2)
// refined by Algorithm 1, applied recursively (Sec. 4.1.2: "we may
// recursively repeat this process until none of them exceed the capacity
// limit").
func Partition(ctx context.Context, p *mqo.Problem, opt Options) (*Result, error) {
	if opt.Capacity <= 0 {
		return nil, fmt.Errorf("partition: capacity must be positive, got %d", opt.Capacity)
	}
	start := time.Now()
	g := BuildGraph(p)
	all := make([]int, p.NumQueries())
	for i := range all {
		all[i] = i
	}
	return refit(ctx, g, p, [][]int{all}, opt, start)
}

// Refit re-validates an existing partitioning of p — typically the
// cross-solve cache's partitioning of a recurring problem structure, or a
// delta-migrated one — against the current capacity: conforming query sets
// are kept verbatim with no annealer work, and only sets whose plan weight
// outgrew the capacity are recursively re-bisected, exactly as Partition
// would split them. querySets must cover every query of p exactly once
// (violations return an error — this is also the safety net that turns a
// structure-fingerprint collision into a recoverable failure instead of a
// wrong answer). For a partitioning Partition itself produced on a problem
// with unchanged structure and unchanged capacity, Refit reproduces
// Partition's Result bit-identically: every set already conforms, and the
// stable descending-weight re-sort and parallel extraction are the same
// tail Partition runs.
func Refit(ctx context.Context, p *mqo.Problem, querySets [][]int, opt Options) (*Result, error) {
	if opt.Capacity <= 0 {
		return nil, fmt.Errorf("partition: capacity must be positive, got %d", opt.Capacity)
	}
	start := time.Now()
	seen := make([]bool, p.NumQueries())
	count := 0
	initial := make([][]int, len(querySets))
	for i, qs := range querySets {
		for _, q := range qs {
			if q < 0 || q >= p.NumQueries() {
				return nil, fmt.Errorf("partition: refit query %d out of range [0,%d)", q, p.NumQueries())
			}
			if seen[q] {
				return nil, fmt.Errorf("partition: refit covers query %d twice", q)
			}
			seen[q] = true
			count++
		}
		initial[i] = append([]int(nil), qs...)
	}
	if count != p.NumQueries() {
		return nil, fmt.Errorf("partition: refit covers %d of %d queries", count, p.NumQueries())
	}
	return refit(ctx, BuildGraph(p), p, initial, opt, start)
}

// refit is the shared partitioning core: recursively bisect every initial
// query set that exceeds the capacity, then sort, extract and account the
// conforming sets. Partition passes the all-queries set; Refit passes a
// previous partitioning.
func refit(ctx context.Context, g *Graph, p *mqo.Problem, initial [][]int, opt Options, start time.Time) (*Result, error) {
	sink := obs.FromContext(ctx)
	res := &Result{}
	seed := opt.Seed
	plans := p.NumPlans()
	var recurse func(queries []int) error
	recurse = func(queries []int) error {
		if g.PlanWeight(queries) <= float64(opt.Capacity) || len(queries) == 1 {
			res.QuerySets = append(res.QuerySets, queries)
			return nil
		}
		seed++
		part1, part2, degraded, err := bisect(ctx, g, queries, opt, opt.bisectSweeps(len(queries), plans), seed)
		if err != nil {
			return err
		}
		res.Bisections++
		if degraded {
			res.DegradedBisections++
		}
		if err := recurse(part1); err != nil {
			return err
		}
		return recurse(part2)
	}
	for _, qs := range initial {
		if err := recurse(qs); err != nil {
			return nil, err
		}
	}
	// Largest partial problems first: the incumbent solution they seed
	// steers all remaining solves.
	sort.SliceStable(res.QuerySets, func(i, j int) bool {
		return g.PlanWeight(res.QuerySets[i]) > g.PlanWeight(res.QuerySets[j])
	})
	// Extracting partial problems is independent per query set; fan the
	// extractions out over the run-level worker pool. Results are addressed
	// by index, so the outcome is identical at any parallelism.
	res.SubProblems = make([]*mqo.SubProblem, len(res.QuerySets))
	extractErrs := make([]error, len(res.QuerySets))
	solver.ForEachRun(len(res.QuerySets), solver.Workers(opt.Parallelism), func(i int) {
		res.SubProblems[i], extractErrs[i] = mqo.Extract(p, res.QuerySets[i])
	})
	for _, err := range extractErrs {
		if err != nil {
			return nil, err
		}
	}
	// Sum each crossing saving once: every discarded saving appears in
	// exactly two sub-problems' Discarded lists.
	var total float64
	for _, sp := range res.SubProblems {
		total += sp.DiscardedMagnitude()
	}
	res.DiscardedSavings = total / 2
	if sink.Enabled() {
		sink.Emit(obs.Event{
			Name: "partition", Dur: time.Since(start),
			N: len(res.SubProblems), Value: res.DiscardedSavings, Extra: float64(res.Bisections),
		})
		if reg := sink.Metrics(); reg != nil {
			reg.Gauge("partition.subproblems").Set(float64(len(res.SubProblems)))
			reg.Counter("partition.bisections").Add(float64(res.Bisections))
			reg.Counter("partition.discarded").Add(res.DiscardedSavings)
		}
	}
	return res, nil
}

// bisect splits one query subset into two non-empty parts using the
// annealer on the induced partitioning graph, annealing for sweeps sweeps
// (zero: device default), then post-processes with Algorithm 1 (both
// orientations, best cut kept). When the device solve fails terminally — or
// returns an empty sample set — the bisection degrades to the deterministic
// weight-balancing split (reported via the third return) rather than
// aborting the whole partitioning phase, unless Options.FailFast asks for
// the error. With the sink enabled it emits one "bisect" event carrying the
// device's performed sweeps and the post-processed cut weight.
func bisect(ctx context.Context, g *Graph, queries []int, opt Options, sweeps int, seed int64) ([]int, []int, bool, error) {
	t0 := time.Now()
	sub := g.Subgraph(queries)
	enc, err := encoding.EncodePartition(sub.NodeWeights, sub.Edges)
	if err != nil {
		return nil, nil, false, err
	}
	dev := opt.Solver
	if dev == nil || (dev.Capacity() > 0 && enc.Model.NumVariables() > dev.Capacity()) {
		// Precondition of Sec. 4.1.2: the device must hold one variable
		// per query node. Degrade to classical SA when it cannot, at SA's
		// own default budget: the device's step count would mean n
		// proposals per step to SA.
		dev, sweeps = &sa.Solver{}, 0
	}
	req := solver.Request{Model: enc.Model, Runs: opt.Runs, Sweeps: sweeps, Seed: seed, Parallelism: opt.Parallelism}
	sink := obs.FromContext(ctx)
	if sink.Enabled() {
		// Distinguish the device's bisection solves from the MQO-phase
		// solves in traces.
		ctx = obs.WithLabel(ctx, "bisect")
	}
	var l1, l2 []int
	degraded := false
	performed := 0
	result, err := dev.Solve(ctx, req)
	best, haveSample := solver.Sample{}, false
	if err == nil {
		best, haveSample = result.Best()
		performed = result.Sweeps
	} else if opt.FailFast {
		return nil, nil, false, fmt.Errorf("partition: bisection solve: %w", err)
	}
	if haveSample {
		l1, l2, err = enc.Decode(best.Assignment)
		if err != nil {
			return nil, nil, false, err
		}
	} else {
		// The solve failed terminally or yielded no sample: split by
		// alternating descending node weights instead of aborting the
		// phase. The split is deterministic, so the degraded pipeline
		// stays reproducible.
		degraded = true
		if sink.Enabled() {
			sink.Emit(obs.Event{Name: "degrade", Device: dev.Name(), Label: "bisect", N: len(queries)})
			if reg := sink.Metrics(); reg != nil {
				reg.Counter("partition.degraded").Add(1)
			}
		}
	}
	if len(l1) == 0 || len(l2) == 0 {
		l1, l2 = fallbackSplit(sub)
	}
	if parses := opt.parses(); parses > 0 {
		l1, l2 = PostProcessBest(sub, l1, l2, parses, opt.minSize(len(queries)))
	}
	if len(l1) == 0 || len(l2) == 0 {
		l1, l2 = fallbackSplit(sub)
	}
	if sink.Enabled() {
		sink.Emit(obs.Event{
			Name: "bisect", Dur: time.Since(t0), N: len(queries),
			Sweeps: performed, Value: sub.CutWeight(l1, l2),
		})
	}
	toGlobal := func(local []int) []int {
		out := make([]int, len(local))
		for i, l := range local {
			out[i] = queries[l]
		}
		sort.Ints(out)
		return out
	}
	return toGlobal(l1), toGlobal(l2), degraded, nil
}

// fallbackSplit deterministically halves a subset by alternating
// descending node weights across the parts, guaranteeing progress when the
// annealer degenerates to an empty side.
func fallbackSplit(g *Graph) ([]int, []int) {
	order := make([]int, g.NumNodes())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if g.NodeWeights[order[a]] != g.NodeWeights[order[b]] {
			return g.NodeWeights[order[a]] > g.NodeWeights[order[b]]
		}
		return order[a] < order[b]
	})
	var p1, p2 []int
	var w1, w2 float64
	for _, v := range order {
		if w1 <= w2 {
			p1 = append(p1, v)
			w1 += g.NodeWeights[v]
		} else {
			p2 = append(p2, v)
			w2 += g.NodeWeights[v]
		}
	}
	return p1, p2
}
