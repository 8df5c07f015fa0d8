package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareRefusesMixedHosts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	def := `{"end_to_end": [{"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	here := host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "x"}
	write := func(name string, h host, lat ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range lat {
			rec := &record{Workload: "cold-large", Seed: int64(i), Host: h,
				Result: result{Correct: true, Attempted: 1, Metrics: metricSet{"lat_p50_ms": {Value: v, Unit: "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", here, 100, 101, 99, 100)
	head := write("head.jsonl", here, 120, 121, 119, 120)
	var out bytes.Buffer
	if err := compareRecords(&out, bench, base, head); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 20%% slower head within a 10%% bound was not flagged:\n%s", out.String())
	}

	other := here
	other.NumCPU = 1
	moved := write("other.jsonl", other, 100, 100)
	if err := compareRecords(&out, bench, base, moved); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("records from a 1-vCPU and a 2-vCPU host were compared (err %v)", err)
	}
}
