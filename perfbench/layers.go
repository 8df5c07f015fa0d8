package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"incranneal/internal/bench"
	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/obs"
	"incranneal/internal/partition"
	"incranneal/internal/qubo"
	"incranneal/internal/serve"
	"incranneal/internal/solvecache"
	"incranneal/internal/solver"
)

// deviceLoad is what one class of device calls cost.
type deviceLoad struct {
	calls int
	busy  time.Duration
	vars  int
}

// deviceStats aggregates device calls by the pipeline's context label:
// "bisect" for the partitioning phase's graph bisections, "sub" for every
// other solve (the MQO partial problems, or a whole problem that fits the
// device).
type deviceStats struct {
	mu          sync.Mutex
	bisect, sub deviceLoad
}

func (s *deviceStats) snapshot() (bisect, sub deviceLoad) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bisect, s.sub
}

// timedDevice times every Solve of the device it wraps. It only forwards,
// so results stay bit-identical to the bare device. Labels are attached by
// the pipeline only when an obs sink is enabled, so it is used in traced
// runs, which always carry one.
type timedDevice struct {
	inner solver.Solver
	stats *deviceStats
}

func (d *timedDevice) Name() string  { return d.inner.Name() }
func (d *timedDevice) Capacity() int { return d.inner.Capacity() }

func (d *timedDevice) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	t0 := time.Now()
	res, err := d.inner.Solve(ctx, req)
	busy := time.Since(t0)
	d.stats.mu.Lock()
	load := &d.stats.sub
	if obs.LabelFromContext(ctx) == "bisect" {
		load = &d.stats.bisect
	}
	load.calls++
	load.busy += busy
	load.vars += req.Model.NumVariables()
	d.stats.mu.Unlock()
	return res, err
}

// tracer is the instrumentation of a traced window: the program's own obs
// sink, collecting spans, run events and histograms in memory, plus the
// device timing wrapper.
type tracer struct {
	sink *obs.Sink
	dev  *deviceStats
}

func newTracer() *tracer {
	return &tracer{sink: obs.NewCollector(obs.NewRegistry()), dev: &deviceStats{}}
}

func (t *tracer) device(inner solver.Solver) solver.Solver {
	return &timedDevice{inner: inner, stats: t.dev}
}

// registry is the traced sink's metrics registry; nil when untraced.
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.sink.Metrics()
}

// metricSet collects named metrics with their units.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// perOp divides a window total by its completed operations.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// traceLayers derives the core, partition and da metrics of a traced
// window from the events its sink collected and from the device wrapper.
func traceLayers(m metricSet, t *tracer, w *window) {
	ops := w.completed()
	phases := map[uint64]map[string]time.Duration{}
	var bisections, degraded, bisectVars int
	var bisectBusy time.Duration
	var flips int64
	for _, e := range t.sink.Events() {
		switch e.Name {
		case "partition", "encode", "anneal", "decode", "dss":
			// Phase spans and events of one operation share its trace; the
			// partition package's own untraced summary event is skipped so
			// the phase is not counted twice.
			if e.Trace != 0 {
				if phases[e.Trace] == nil {
					phases[e.Trace] = map[string]time.Duration{}
				}
				phases[e.Trace][e.Name] += e.Dur
			}
		case "bisect":
			bisections++
			bisectBusy += e.Dur
			bisectVars += e.N
		case "degrade":
			if e.Label == "bisect" {
				degraded++
			}
		case "run":
			if e.Device == "da" {
				flips += e.Flips
			}
		}
	}
	for _, name := range []string{"partition", "encode", "anneal", "decode", "dss"} {
		var per []float64
		for _, ph := range phases {
			per = append(per, ms(ph[name]))
		}
		m.set("core."+name+"_ms", "ms", zeroNaN(median(per)))
	}
	m.set("core.partitions", "count", zeroNaN(mean(w.partitions)))
	m.set("core.sweeps", "count", zeroNaN(mean(w.sweeps)))
	m.set("core.discarded_savings_frac", "ratio", zeroNaN(mean(w.discardedFrac)))
	m.set("core.reapplied_frac", "ratio", zeroNaN(mean(w.reappliedFrac)))

	m.set("partition.bisections", "count", perOp(float64(bisections), ops))
	m.set("partition.degraded_bisections", "count", float64(degraded))
	m.set("partition.bisect_busy_ms", "ms", perOp(ms(bisectBusy), ops))
	m.set("partition.bisect_vars_mean", "count", perOp(float64(bisectVars), bisections))

	b, s := t.dev.snapshot()
	m.set("da.bisect.calls", "count", perOp(float64(b.calls), ops))
	m.set("da.bisect.busy_ms", "ms", perOp(ms(b.busy), ops))
	m.set("da.sub.calls", "count", perOp(float64(s.calls), ops))
	m.set("da.sub.busy_ms", "ms", perOp(ms(s.busy), ops))
	m.set("da.sub.vars_mean", "count", perOp(float64(s.vars), s.calls))
	m.set("da.flips", "count", perOp(float64(flips), ops))
	busy := (b.busy + s.busy).Seconds()
	if busy > 0 {
		m.set("da.flips_per_s", "1/s", float64(flips)/busy)
	} else {
		m.set("da.flips_per_s", "1/s", 0)
	}
}

// rungInput is what the layer rungs time direct calls on: a problem of the
// workload's largest size, the cache its operations used (nil for none)
// and a seed for the rungs' own randomness.
type rungInput struct {
	p     *mqo.Problem
	cache *solvecache.Cache
	seed  int64
	// bodies holds one request body per size class for the serve decode
	// rung, keyed by metric suffix; empty outside serve-mixed.
	bodies map[string][]byte
}

// rungReps is how many times a rung repeats a call; the median is kept.
const rungReps = 5

// timeMedian runs fn rungReps times and returns the median duration in
// milliseconds.
func timeMedian(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < rungReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// layerRungs times the public entry points of the encoding, qubo,
// solvecache and serve layers from outside, on models and problems taken
// from the workload.
func layerRungs(ctx context.Context, m metricSet, in rungInput) error {
	g := partition.BuildGraph(in.p)
	var root *encoding.PartitionEncoding
	encMs, err := timeMedian(func() (err error) {
		root, err = encoding.EncodePartitionScaled(g.NodeWeights, g.Edges, 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("partition encode rung: %w", err)
	}
	m.set("encoding.partition_encode_ms", "ms", encMs)

	// The partial problems of the workload's problem, as its pipeline cuts
	// them.
	part, err := partition.Partition(ctx, in.p, partition.Options{
		Capacity: capacity, Solver: &da.Solver{}, Runs: runs,
		Sweeps: sweepsPerPlan * in.p.NumPlans(), Seed: in.seed, Parallelism: parallelism(),
	})
	if err != nil {
		return fmt.Errorf("partition rung: %w", err)
	}
	var prepare, rebind []float64
	var largest *qubo.Model
	for i, sub := range part.SubProblems {
		var pp *encoding.PreparedMQO
		t, err := timeMedian(func() (err error) {
			pp, err = encoding.PrepareMQO(sub.Local)
			return err
		})
		if err != nil {
			return fmt.Errorf("prepare rung: %w", err)
		}
		prepare = append(prepare, t)
		model := pp.Encoding().Model
		if largest == nil || model.NumVariables() > largest.NumVariables() {
			largest = model
		}
		drifted, err := bench.DriftWeights(sub.Local, driftRel, in.seed+int64(i))
		if err != nil {
			return fmt.Errorf("rebind rung: %w", err)
		}
		t, err = timeMedian(func() error {
			if !pp.Rebind(drifted) {
				return fmt.Errorf("rebind rung: skeleton refused a drifted problem of the same shape")
			}
			pp.Encoding()
			return nil
		})
		if err != nil {
			return err
		}
		rebind = append(rebind, t)
	}
	m.set("encoding.prepare_ms", "ms", median(prepare))
	m.set("encoding.rebind_ms", "ms", median(rebind))

	m.set("qubo.flip_ns.bisect", "ns", flipNanos(root.Model, in.seed))
	m.set("qubo.flip_ns.sub", "ns", flipNanos(largest, in.seed))
	m.set("qubo.bytes_per_flip", "bytes", bytesPerFlip(root.Model))

	cache := in.cache
	if cache == nil {
		cache = solvecache.New(0) // the miss path: fingerprinting only
	}
	lookMs, err := timeMedian(func() error { cache.Lookup(in.p); return nil })
	if err != nil {
		return err
	}
	m.set("solvecache.lookup_us", "us", lookMs*1e3)

	for _, class := range []string{"q64", "q128"} {
		body, ok := in.bodies[class]
		if !ok {
			m.set("serve.decode_ms."+class, "ms", 0)
			continue
		}
		t, err := timeMedian(func() error {
			var req serve.SolveRequest
			return json.Unmarshal(body, &req)
		})
		if err != nil {
			return fmt.Errorf("serve decode rung: %w", err)
		}
		m.set("serve.decode_ms."+class, "ms", t)
	}
	return nil
}

// flipSteps is the number of kernel steps the qubo rung times per model.
const flipSteps = 200000

// flipNanos times the Digital Annealer's parallel-trial step on m: count
// the candidates below a threshold, pick one, flip it. An infinite
// threshold admits every variable, so each step scans the whole delta
// array and performs one O(degree) flip.
func flipNanos(m *qubo.Model, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	st := qubo.NewRandomState(m, rng)
	theta := float64(1e308)
	picks := make([]int, 1024)
	for i := range picks {
		picks[i] = rng.Intn(m.NumVariables())
	}
	t0 := time.Now()
	for k := 0; k < flipSteps; k++ {
		if n := st.CountBelow(theta); n > 0 {
			st.Flip(st.PickKthBelow(theta, picks[k%len(picks)]%n))
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / flipSteps
}

// bytesPerFlip is computed, not measured: the bytes one flip touches in
// the adjacency list (an int index and a float64 coefficient per
// neighbour), at m's mean degree.
func bytesPerFlip(m *qubo.Model) float64 {
	var deg int
	for i := 0; i < m.NumVariables(); i++ {
		deg += m.Degree(i)
	}
	return float64(deg) / float64(m.NumVariables()) * 16
}
