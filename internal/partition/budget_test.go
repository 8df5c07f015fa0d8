package partition

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/da"
	"incranneal/internal/obs"
	"incranneal/internal/workload"
)

// TestBisectFallbackUsesSADefaultBudget pins the classical fallback's
// budget: when the device cannot hold the bisection graph (or there is no
// device), SA anneals at its own 1,000-sweep default, never at the
// device's step count, which SA would read as n proposals per step.
func TestBisectFallbackUsesSADefaultBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomProblem(rng, 12, 3, 0.2) // 36 plans
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"over capacity", Options{Capacity: 12, Solver: &da.Solver{CapacityVars: 4}, Runs: 2, Sweeps: 1_000_000, Seed: 1}},
		{"no device", Options{Capacity: 12, Runs: 2, Sweeps: 1_000_000, Seed: 1}},
	} {
		sink := obs.NewCollector(nil)
		res, err := Partition(obs.NewContext(context.Background(), sink), p, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		runs := 0
		for _, e := range sink.Events() {
			if e.Name != "run" || e.Label != "bisect" {
				continue
			}
			runs++
			if e.Device != "sa" || e.Sweeps != 1000 {
				t.Errorf("%s: bisection run on %q annealed %d sweeps, want sa at its 1000-sweep default", tc.name, e.Device, e.Sweeps)
			}
		}
		if res.Bisections == 0 || runs != 2*res.Bisections {
			t.Errorf("%s: %d bisect runs for %d bisections, want 2 each", tc.name, runs, res.Bisections)
		}
	}
}

// TestBisectEventReportsSweepsAndCut pins the "bisect" event's payload: the
// device's performed sweeps (all runs) and the post-processed cut weight of
// the split it returns.
func TestBisectEventReportsSweepsAndCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 16, 3, 0.2) // 48 plans: one bisection at capacity 40
	g := BuildGraph(p)
	sink := obs.NewCollector(nil)
	opt := Options{Capacity: 40, Solver: &da.Solver{}, Runs: 3, Sweeps: 48 * 50, Seed: 2}
	res, err := Partition(obs.NewContext(context.Background(), sink), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bisections != 1 || len(res.QuerySets) != 2 {
		t.Fatalf("got %d bisections into %d sets, want one split", res.Bisections, len(res.QuerySets))
	}
	runSweeps, events := 0, 0
	for _, e := range sink.Events() {
		switch {
		case e.Name == "run" && e.Label == "bisect":
			runSweeps += e.Sweeps
		case e.Name == "bisect":
			events++
			if want := 3 * 16 * 50; e.Sweeps != want || runSweeps != want {
				t.Errorf("bisect event reports %d sweeps, runs %d, want %d (3 runs of 16·50)", e.Sweeps, runSweeps, want)
			}
			if want := g.CutWeight(res.QuerySets[0], res.QuerySets[1]); e.Value != want {
				t.Errorf("bisect event cut %v, want the split's cut weight %v", e.Value, want)
			}
		}
	}
	if events != 1 {
		t.Errorf("%d bisect events, want 1", events)
	}
}

// TestSizedBisectionBudgetKeepsCutQuality compares the root bisection of
// seeded q=128 sweep graphs (6 plans per query, the benchmark's density)
// under the sized budget — 100 sweeps per plan shared at the MQO phase's
// per-variable rate, 12,800 sweeps — against the old whole budget of
// 76,800 sweeps, 6× as many. Both are post-processed by Algorithm 1 as in
// the pipeline.
//
// Tolerances, measured: on 32 seeds the sized budget's summed cut was
// +0.9% over the whole budget's (per-instance spread ±12%, so a mean over
// the 8 seeds here spreads about ±4.4%; these 8 read −5.0%), and its mean
// balance error |w1−w2|/(w1+w2) 0.494 against 0.462 (these 8: 0.500 vs
// 0.467; post-processing's 25% floor bounds it at 0.5). The gate allows
// +10% summed cut and +0.05 balance error. For scale: one sweep per
// bisection read +37% to +64% cut on every 8-seed group, a 1/16 share +3%
// to +21%.
func TestSizedBisectionBudgetKeepsCutQuality(t *testing.T) {
	const instances = 8
	var sizedCut, wholeCut, sizedBal, wholeBal float64
	for i := 0; i < instances; i++ {
		in, err := workload.GenerateSweep(workload.SweepConfig{
			Queries: 128, PPQ: 6, Communities: 4,
			DensityLow: 0.425, DensityHigh: 0.425, Seed: int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		p := in.Problem
		g := BuildGraph(p)
		all := make([]int, p.NumQueries())
		for q := range all {
			all[q] = q
		}
		opt := Options{Solver: &da.Solver{}, Runs: 8, Sweeps: 100 * p.NumPlans()}
		measure := func(sweeps int) (cut, balance float64) {
			p1, p2, _, err := bisect(context.Background(), g, all, opt, sweeps, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			w1, w2 := g.PlanWeight(p1), g.PlanWeight(p2)
			return g.CutWeight(p1, p2), math.Abs(w1-w2) / (w1 + w2)
		}
		sc, sb := measure(opt.bisectSweeps(len(all), p.NumPlans()))
		wc, wb := measure(opt.Sweeps)
		t.Logf("seed %d: cut %.1f sized vs %.1f whole (%+.2f%%), balance %.3f vs %.3f", 100+i, sc, wc, 100*(sc/wc-1), sb, wb)
		sizedCut += sc
		wholeCut += wc
		sizedBal += sb
		wholeBal += wb
	}
	sizedBal /= instances
	wholeBal /= instances
	t.Logf("summed cut %+.2f%%, mean balance error %.3f sized vs %.3f whole", 100*(sizedCut/wholeCut-1), sizedBal, wholeBal)
	if sizedCut > 1.10*wholeCut {
		t.Errorf("sized budget's summed cut %.1f exceeds the whole budget's %.1f by more than 10%%", sizedCut, wholeCut)
	}
	if sizedBal > wholeBal+0.05 {
		t.Errorf("sized budget's mean balance error %.3f exceeds the whole budget's %.3f by more than 0.05", sizedBal, wholeBal)
	}
}
