package core

import (
	"context"
	"sync"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/obs"
	"incranneal/internal/partition"
	"incranneal/internal/solver"
	"incranneal/internal/workload"
)

// bisectProbe records the variable count and requested sweeps of every
// "bisect"-labelled solve it forwards.
type bisectProbe struct {
	solver.Solver
	mu      sync.Mutex
	bisects [][2]int // {variables, requested sweeps}
}

func (b *bisectProbe) Solve(ctx context.Context, req solver.Request) (*solver.Result, error) {
	b.mu.Lock()
	if obs.LabelFromContext(ctx) == "bisect" {
		b.bisects = append(b.bisects, [2]int{req.Model.NumVariables(), req.Sweeps})
	}
	b.mu.Unlock()
	return b.Solver.Solve(ctx, req)
}

// wantBisectSweeps is the bisection budget rule, restated independently:
// the MQO phase's per-variable rate times the bisection's query count,
// floored at 1; zero keeps the device default.
func wantBisectSweeps(total, queries, plans int) int {
	if total == 0 {
		return 0
	}
	if s := total * queries / plans; s > 0 {
		return s
	}
	return 1
}

// TestBisectionSweepBudget pins that every bisection of the partitioning
// phase — the root, its children, and a Refit overflow re-bisection —
// anneals ⌊TotalSweeps·n_b/NumPlans⌋ sweeps (floor 1), the share a partial
// problem of n_b variables gets in the MQO phase, and that TotalSweeps = 0
// passes 0 through to the device default.
func TestBisectionSweepBudget(t *testing.T) {
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: 48, PPQ: 4, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.6, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := in.Problem
	plans := p.NumPlans() // 192: capacity 48 needs two levels of bisection
	// 3 total sweeps is a per-variable rate below one: every share floors
	// at 1.
	for _, total := range []int{50 * plans, 3, 0} {
		probe := &bisectProbe{Solver: &da.Solver{CapacityVars: 48, DefaultSteps: 200}}
		o := Options{Device: probe, Capacity: 48, Runs: 2, TotalSweeps: total, Seed: 3, Parallelism: -1}
		ctx := obs.NewContext(context.Background(), obs.NewCollector(nil))
		if _, err := SolveIncremental(ctx, p, o); err != nil {
			t.Fatal(err)
		}
		if len(probe.bisects) < 3 || probe.bisects[0][0] != p.NumQueries() {
			t.Fatalf("total %d: bisections %v, want the %d-query root and its children", total, probe.bisects, p.NumQueries())
		}
		for i, b := range probe.bisects {
			if want := wantBisectSweeps(total, b[0], plans); b[1] != want {
				t.Errorf("total %d: bisection %d of %d queries requested %d sweeps, want %d", total, i, b[0], b[1], want)
			}
		}

		// A cached partitioning whose second half outgrew the capacity:
		// Refit re-bisects only that set, under the same rule.
		probe.bisects = nil
		sets := [][]int{{}, {}}
		for q := 0; q < p.NumQueries(); q++ {
			if q < 8 {
				sets[0] = append(sets[0], q) // 32 plans: conforms
			} else {
				sets[1] = append(sets[1], q) // 160 plans: overflows
			}
		}
		part, err := partition.Refit(ctx, p, sets, o.partitionOptions())
		if err != nil {
			t.Fatal(err)
		}
		if part.Bisections == 0 || probe.bisects[0][0] != len(sets[1]) {
			t.Fatalf("total %d: refit bisections %v, want the overflowing %d-query set first", total, probe.bisects, len(sets[1]))
		}
		for i, b := range probe.bisects {
			if want := wantBisectSweeps(total, b[0], plans); b[1] != want {
				t.Errorf("total %d: refit bisection %d of %d queries requested %d sweeps, want %d", total, i, b[0], b[1], want)
			}
		}
	}
}
