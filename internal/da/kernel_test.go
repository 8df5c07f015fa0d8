package da

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// zeroSource is a rand.Source that always yields 0, forcing
// rand.Float64() to return exactly 0 — the edge the acceptance threshold
// must survive.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// TestExpVariateFiniteOnZeroDraw is the regression test for the parallel
// trial threshold: Float64 can return exactly 0, and −ln(0) = +Inf would
// make theta infinite and silently accept every variable for that step.
// The (0,1]-mirrored draw keeps the variate finite and non-negative.
func TestExpVariateFiniteOnZeroDraw(t *testing.T) {
	rng := rand.New(zeroSource{})
	if got := rng.Float64(); got != 0 {
		t.Fatalf("zeroSource sanity: Float64 = %v, want 0", got)
	}
	v := expVariate(rand.New(zeroSource{}))
	if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
		t.Fatalf("expVariate on zero draw = %v, want finite ≥ 0", v)
	}
}

func TestExpVariateDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := expVariate(rng)
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("expVariate = %v", v)
		}
		sum += v
	}
	// Exp(1) has mean 1.
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("expVariate mean = %v, want ≈ 1", mean)
	}
}

// parallelismSettings are the worker counts the determinism contract is
// checked against: sequential, a fixed small pool and whatever this
// machine's GOMAXPROCS resolves to.
func parallelismSettings() []int {
	return []int{-1, 1, 4, runtime.GOMAXPROCS(0)}
}

// assertSamplesIdentical solves req once per parallelism setting and
// requires bit-identical samples (energies and assignments).
func assertSamplesIdentical(t *testing.T, solve func(solver.Request) (*solver.Result, error), req solver.Request) {
	t.Helper()
	var ref *solver.Result
	for _, par := range parallelismSettings() {
		r := req
		r.Parallelism = par
		res, err := solve(r)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Samples) != len(ref.Samples) {
			t.Fatalf("parallelism %d: %d samples, want %d", par, len(res.Samples), len(ref.Samples))
		}
		for i := range res.Samples {
			if res.Samples[i].Energy != ref.Samples[i].Energy ||
				!reflect.DeepEqual(res.Samples[i].Assignment, ref.Samples[i].Assignment) {
				t.Fatalf("parallelism %d: sample %d differs", par, i)
			}
		}
		if res.Sweeps != ref.Sweeps {
			t.Errorf("parallelism %d: %d sweeps, want %d", par, res.Sweeps, ref.Sweeps)
		}
	}
}

func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	assertSamplesIdentical(t, func(r solver.Request) (*solver.Result, error) {
		return s.Solve(context.Background(), r)
	}, solver.Request{Model: enc.Model, Runs: 8, Sweeps: 400, Seed: 42})
}

func TestSolvePTDeterministicAcrossParallelism(t *testing.T) {
	p := mqo.PaperExample()
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		t.Fatal(err)
	}
	s := &Solver{}
	assertSamplesIdentical(t, func(r solver.Request) (*solver.Result, error) {
		return s.SolvePT(context.Background(), r)
	}, solver.Request{Model: enc.Model, Sweeps: 2000, Seed: 42})
}

// BenchmarkKernelDAStep measures one parallel-trial Monte-Carlo step — the
// threshold draw, the candidate select and the flip — on each coupling
// layout: a sparse 512-variable model (adjacency lists) and the bisection
// QUBO of a complete 256-node graph (dense coupling rows).
func BenchmarkKernelDAStep(b *testing.B) {
	b.Run("sparse", func(b *testing.B) {
		benchDAStep(b, obsBenchModel(512), rand.New(rand.NewSource(42)))
	})
	b.Run("dense", func(b *testing.B) {
		rng := rand.New(rand.NewSource(42))
		const nodes = 256
		weights := make([]float64, nodes)
		var edges []encoding.WeightedEdge
		for u := range weights {
			weights[u] = float64(1 + rng.Intn(8))
			for v := u + 1; v < nodes; v++ {
				edges = append(edges, encoding.WeightedEdge{U: u, V: v, Weight: rng.Float64() * 10})
			}
		}
		enc, err := encoding.EncodePartition(weights, edges)
		if err != nil {
			b.Fatal(err)
		}
		benchDAStep(b, enc.Model, rng)
	})
}

func benchDAStep(b *testing.B, m *qubo.Model, rng *rand.Rand) {
	s := &Solver{}
	st := qubo.NewRandomState(m, rng)
	hot, cold := temperatureRange(m)
	temp := math.Sqrt(hot * cold)
	offUnit := meanAbsCoefficient(m)
	offset := 0.0
	candidates := make([]int32, m.NumVariables())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.parallelTrialStep(st, temp, &offset, offUnit, rng, candidates)
	}
}
