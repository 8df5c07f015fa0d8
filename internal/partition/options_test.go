package partition

import "testing"

func TestOptionsParsesDefaults(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{0, 4},  // paper default
		{-1, 0}, // disabled
		{7, 7},  // explicit
	}
	for _, tc := range cases {
		o := Options{PostProcessParses: tc.in}
		if got := o.parses(); got != tc.want {
			t.Errorf("parses(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestOptionsMinSize(t *testing.T) {
	o := Options{} // default fraction 0.25
	if got := o.minSize(40); got != 10 {
		t.Errorf("minSize(40) = %d, want 10", got)
	}
	if got := o.minSize(2); got != 1 {
		t.Errorf("minSize(2) = %d, want floor 1", got)
	}
	o.MinPartFraction = 0.5
	if got := o.minSize(40); got != 20 {
		t.Errorf("minSize(40) at 0.5 = %d, want 20", got)
	}
}

func TestPostProcessZeroParsesIsNoOp(t *testing.T) {
	p1, p2 := PostProcess(nil, []int{0, 2}, []int{1, 3}, 0, 1)
	if len(p1) != 2 || len(p2) != 2 {
		t.Errorf("zero parses changed partitions: %v | %v", p1, p2)
	}
}

func TestOptionsBisectSweeps(t *testing.T) {
	// Cold-large figures: q=256 at 6 plans/query, 100 sweeps/plan.
	o := Options{Sweeps: 100 * 1536}
	if got := o.bisectSweeps(256, 1536); got != 25600 {
		t.Errorf("root share %d, want 25600", got)
	}
	if got := o.bisectSweeps(128, 1536); got != 12800 {
		t.Errorf("child share %d, want 12800", got)
	}
	if got := (&Options{Sweeps: 3}).bisectSweeps(10, 1536); got != 1 {
		t.Errorf("tiny budget share %d, want the floor of 1", got)
	}
	if got := (&Options{}).bisectSweeps(256, 1536); got != 0 {
		t.Errorf("zero budget share %d, want 0 (device default)", got)
	}
}
