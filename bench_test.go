package incranneal

// bench_test.go drives every figure of the paper's evaluation through the
// experiment harness at smoke scale, so `go test -bench=.` regenerates a
// miniature of each plot in minutes. Full-scale runs (including the
// paper's exact dimensions) go through cmd/mqobench with -scale reduced or
// -scale paper. Micro-benchmarks of the hot code paths follow.

import (
	"context"
	"testing"

	"incranneal/internal/bench"
	"incranneal/internal/da"
	"incranneal/internal/encoding"
	"incranneal/internal/mqo"
	"incranneal/internal/partition"
	"incranneal/internal/qubo"
	"incranneal/internal/sa"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// benchFigure runs one figure driver per benchmark iteration and reports
// the resulting table once.
func benchFigure(b *testing.B, run func(ctx context.Context, cfg bench.Config, scale bench.Scale) (*bench.Report, error)) {
	b.Helper()
	scale := bench.SmokeScale()
	cfg := bench.ConfigFor(scale)
	ctx := context.Background()
	var report *bench.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := run(ctx, cfg, scale)
		if err != nil {
			b.Fatal(err)
		}
		report = r
	}
	b.StopTimer()
	if report != nil && testing.Verbose() {
		b.Log("\n" + report.String())
	}
}

// BenchmarkFig1QubitRequirements regenerates the qubit-capacity figure
// (pure arithmetic — the baseline the partitioning method removes).
func BenchmarkFig1QubitRequirements(b *testing.B) {
	benchFigure(b, func(ctx context.Context, cfg bench.Config, scale bench.Scale) (*bench.Report, error) {
		return bench.Fig1(scale), nil
	})
}

// BenchmarkFig3Scalability regenerates the queries × PPQ sweep with all
// eight approaches.
func BenchmarkFig3Scalability(b *testing.B) { benchFigure(b, bench.Fig3) }

// BenchmarkFig4Communities regenerates the community-structure comparison
// of the DA processing strategies.
func BenchmarkFig4Communities(b *testing.B) { benchFigure(b, bench.Fig4) }

// BenchmarkFig5Densities regenerates the density-interval comparison of DA
// default vs. incremental processing.
func BenchmarkFig5Densities(b *testing.B) { benchFigure(b, bench.Fig5) }

// BenchmarkFig6QOBenchmarks regenerates the TPC-H/LDBC/JOB scenarios.
func BenchmarkFig6QOBenchmarks(b *testing.B) { benchFigure(b, bench.Fig6) }

// BenchmarkFig7Runtimes regenerates the optimisation-time comparison.
func BenchmarkFig7Runtimes(b *testing.B) { benchFigure(b, bench.Fig7) }

// BenchmarkAblationDSS regenerates the DSS on/off ablation.
func BenchmarkAblationDSS(b *testing.B) { benchFigure(b, bench.AblationDSS) }

// BenchmarkAblationPostProcess regenerates the Algorithm 1 on/off ablation.
func BenchmarkAblationPostProcess(b *testing.B) { benchFigure(b, bench.AblationPostProcess) }

// BenchmarkAblationLagrange regenerates the ω_A sweep around the
// Theorem 4.5 bound.
func BenchmarkAblationLagrange(b *testing.B) { benchFigure(b, bench.AblationLagrange) }

// BenchmarkAblationDynamicOffset covers the DA enhancement ablations
// (dynamic offset and parallel trial vs. single flip).
func BenchmarkAblationDynamicOffset(b *testing.B) { benchFigure(b, bench.AblationDigitalAnnealer) }

// --- micro-benchmarks of hot paths ---

func benchInstance(b *testing.B, queries, ppq int) *mqo.Problem {
	b.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: queries, PPQ: ppq, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.6, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in.Problem
}

// BenchmarkEncodeMQO measures building the Trummer–Koch QUBO.
func BenchmarkEncodeMQO(b *testing.B) {
	p := benchInstance(b, 64, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encoding.EncodeMQO(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQUBOFlip measures the O(degree) incremental state update.
func BenchmarkQUBOFlip(b *testing.B) {
	p := benchInstance(b, 64, 6)
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		b.Fatal(err)
	}
	st := qubo.NewState(enc.Model)
	n := enc.Model.NumVariables()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Flip(i % n)
	}
}

// BenchmarkQUBOEnergy measures full energy evaluation (the slow path the
// incremental state avoids).
func BenchmarkQUBOEnergy(b *testing.B) {
	p := benchInstance(b, 64, 6)
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]int8, enc.Model.NumVariables())
	for i := range x {
		x[i] = int8(i % 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Model.Energy(x)
	}
}

// BenchmarkDASolve measures one Digital Annealer run on an encoded
// partition-sized problem.
func BenchmarkDASolve(b *testing.B) {
	p := benchInstance(b, 32, 4)
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		b.Fatal(err)
	}
	dev := &da.Solver{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 1, Sweeps: 2000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSASolve measures one classical SA run on the same problem.
func BenchmarkSASolve(b *testing.B) {
	p := benchInstance(b, 32, 4)
	enc, err := encoding.EncodeMQO(p)
	if err != nil {
		b.Fatal(err)
	}
	dev := &sa.Solver{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Solve(context.Background(), solver.Request{Model: enc.Model, Runs: 1, Sweeps: 200, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartition measures the full annealer-backed recursive
// partitioning of a 96-query instance down to 64-variable devices.
func BenchmarkPartition(b *testing.B) {
	p := benchInstance(b, 96, 4)
	dev := &sa.Solver{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Partition(context.Background(), p, partition.Options{
			// The phase budget whose per-variable share gives the
			// 96-query root bisection 200 sweeps.
			Capacity: 64, Solver: dev, Runs: 2, Sweeps: 200 * p.NumPlans() / p.NumQueries(), Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndIncremental measures the complete pipeline (partition +
// DSS + solve) on a medium instance.
func BenchmarkEndToEndIncremental(b *testing.B) {
	p := benchInstance(b, 48, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{
			Capacity: 64, Runs: 2, TotalSweeps: 6000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSweep measures the instance generator.
func BenchmarkGenerateSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: 128, PPQ: 6, Communities: 4,
			DensityLow: 0.05, DensityHigh: 0.6, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceShootout regenerates the device comparison (paper
// contribution 3, extended with the VA and the DA's tempering mode).
func BenchmarkDeviceShootout(b *testing.B) { benchFigure(b, bench.DeviceShootout) }

// BenchmarkAblationBudget regenerates the quality-vs-budget sweep.
func BenchmarkAblationBudget(b *testing.B) { benchFigure(b, bench.AblationBudget) }
