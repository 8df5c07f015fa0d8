package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("nearestRank reordered its input")
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

func TestTailSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {200, 0.95, true}, {199, 0.95, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// Expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestOpenLoopScheduleIsSeeded(t *testing.T) {
	a := openLoopSchedule(7, 1.8, 25*time.Second, 8, 4, 0.2)
	b := openLoopSchedule(7, 1.8, 25*time.Second, 8, 4, 0.2)
	c := openLoopSchedule(8, 1.8, 25*time.Second, 8, 4, 0.2)
	if len(a) != 45 {
		t.Fatalf("got %d requests, want round(25 s × 1.8/s) = 45", len(a))
	}
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	same := true
	large := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i].inst >= 8 {
			large++
		}
		if i > 0 && a[i].at <= a[i-1].at {
			t.Errorf("request %d due at %v, not after request %d at %v", i, a[i].at, i-1, a[i-1].at)
		}
		if lo, hi := time.Duration(float64(i)/1.8*float64(time.Second)), time.Duration(float64(i+1)/1.8*float64(time.Second)); a[i].at < lo || a[i].at >= hi {
			t.Errorf("request %d due at %v, outside its slot [%v, %v)", i, a[i].at, lo, hi)
		}
	}
	if same {
		t.Error("different seeds gave identical schedules")
	}
	if large != 9 {
		t.Errorf("%d large requests, want round(45 × 0.2) = 9", large)
	}
}
