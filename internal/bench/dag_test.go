package bench

import (
	"context"
	"strings"
	"testing"
)

// TestAblationDAGSmoke runs the schedule ablation at smoke scale and pins
// its acceptance property: serial and parallel quality columns are
// identical (the solves are bit-identical; the formatted cells must be
// too).
func TestAblationDAGSmoke(t *testing.T) {
	scale := SmokeScale()
	r, err := AblationDAG(context.Background(), ConfigFor(scale), scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != scale.Instances {
		t.Fatalf("rows = %d, want %d", len(r.Rows), scale.Instances)
	}
	for _, row := range r.Rows {
		shape, costSerial, costPar, reapSerial, reapPar := row[1], row[2], row[3], row[5], row[6]
		if shape != "2×4" {
			t.Errorf("%s: stride topology scheduled as %s, want 2 waves of width 4", row[0], shape)
		}
		if costSerial != costPar {
			t.Errorf("%s: cost diverged between parallelism settings: serial %s, parallel %s", row[0], costSerial, costPar)
		}
		if reapSerial != reapPar {
			t.Errorf("%s: reapplied savings diverged: serial %s, parallel %s", row[0], reapSerial, reapPar)
		}
	}
	if !strings.Contains(r.String(), "ablation-dag") {
		t.Error("report missing its ID")
	}
}
