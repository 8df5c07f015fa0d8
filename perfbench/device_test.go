package main

import (
	"context"
	"testing"

	"incranneal"
	"incranneal/internal/da"
	"incranneal/internal/obs"
	"incranneal/internal/qubo"
	"incranneal/internal/solver"
)

// fakeDevice answers every request with one all-zero sample.
type fakeDevice struct{}

func (fakeDevice) Name() string  { return "fake" }
func (fakeDevice) Capacity() int { return 0 }
func (fakeDevice) Solve(_ context.Context, req solver.Request) (*solver.Result, error) {
	return &solver.Result{Samples: []solver.Sample{{Assignment: make([]int8, req.Model.NumVariables())}}}, nil
}

func TestTimedDeviceSplitsByLabel(t *testing.T) {
	tr := newTracer()
	dev := tr.device(fakeDevice{})
	small, large := qubo.NewBuilder(3).Build(), qubo.NewBuilder(5).Build()
	ctx := context.Background()
	for _, c := range []struct {
		ctx   context.Context
		model *qubo.Model
	}{
		{obs.WithLabel(ctx, "bisect"), large},
		{obs.WithLabel(ctx, "bisect"), small},
		{obs.WithLabel(ctx, "sub03"), small},
		{ctx, large}, // an unpartitioned solve carries no label
	} {
		if _, err := dev.Solve(c.ctx, solver.Request{Model: c.model}); err != nil {
			t.Fatal(err)
		}
	}
	b, s := tr.dev.snapshot()
	if b.calls != 2 || b.vars != 8 {
		t.Errorf("bisect load %+v, want 2 calls over 8 variables", b)
	}
	if s.calls != 2 || s.vars != 8 {
		t.Errorf("sub load %+v, want 2 calls over 8 variables", s)
	}
	if b.busy <= 0 || s.busy <= 0 {
		t.Errorf("busy times not recorded: bisect %v, sub %v", b.busy, s.busy)
	}
}

// In a real partitioned solve the wrapper sees one bisect call per
// bisection and one sub call per partial problem, and leaves the outcome
// bit-identical to the bare device.
func TestTimedDeviceInPipeline(t *testing.T) {
	p, err := sweepInstance(40, 3, meanDensity, meanDensity)
	if err != nil {
		t.Fatal(err)
	}
	opt := incranneal.Options{Capacity: 64, Runs: 4, TotalSweeps: 20 * p.NumPlans(), Seed: 5, Parallelism: 2}
	bare, err := incranneal.Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	opt.CustomDevice = tr.device(&da.Solver{})
	traced, err := incranneal.Solve(obs.NewContext(context.Background(), tr.sink), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cost != bare.Cost {
		t.Fatalf("wrapped device changed the cost: %v vs %v", traced.Cost, bare.Cost)
	}
	for q := range bare.Solution.Selected {
		if traced.Solution.Selected[q] != bare.Solution.Selected[q] {
			t.Fatalf("wrapped device changed query %d's plan", q)
		}
	}
	if err := verify(p, traced.Solution.Selected, traced.Cost); err != nil {
		t.Fatal(err)
	}
	bisections := 0
	for _, e := range tr.sink.Events() {
		if e.Name == "bisect" {
			bisections++
		}
	}
	b, s := tr.dev.snapshot()
	if traced.NumPartitions < 2 || bisections == 0 {
		t.Fatalf("instance did not partition: %d partitions, %d bisections", traced.NumPartitions, bisections)
	}
	if b.calls != bisections {
		t.Errorf("%d bisect device calls for %d bisections", b.calls, bisections)
	}
	if s.calls != traced.NumPartitions {
		t.Errorf("%d sub device calls for %d partial problems", s.calls, traced.NumPartitions)
	}
}

func TestVerifyRejectsWrongSolutions(t *testing.T) {
	p, err := sweepInstance(6, 1, meanDensity, meanDensity)
	if err != nil {
		t.Fatal(err)
	}
	sol, cost := incranneal.Greedy(p)
	if err := verify(p, sol.Selected, cost); err != nil {
		t.Fatalf("greedy solution rejected: %v", err)
	}
	if err := verify(p, sol.Selected, cost+1e-3); err == nil {
		t.Error("a misreported cost passed")
	}
	if err := verify(p, sol.Selected[:5], cost); err == nil {
		t.Error("a solution missing a query passed")
	}
	wrong := append([]int(nil), sol.Selected...)
	wrong[0] = p.Plans(1)[0] // a plan of another query
	if err := verify(p, wrong, cost); err == nil {
		t.Error("a plan of the wrong query passed")
	}
}
