package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPeakRSSReader(t *testing.T) {
	dir := t.TempDir()
	status := filepath.Join(dir, "status")
	body := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	if err := os.WriteFile(status, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := peakRSSMiB(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("VmHWM 51200 kB read as %v MiB, want 50", got)
	}
	if err := os.WriteFile(status, []byte("Name:\tx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := peakRSSMiB(status); err == nil {
		t.Error("a status file without VmHWM should be an error")
	}
	if self, err := peakRSSMiB("/proc/self/status"); err != nil || self <= 0 {
		t.Errorf("own VmHWM = %v, %v; want a positive size", self, err)
	}
}

func TestProcessCPUCountsWork(t *testing.T) {
	before, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x = x*1.0000001 + 1e-9
	}
	after, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	if used := after - before; used < 20*time.Millisecond {
		t.Errorf("50 ms of spinning used %v of CPU (x=%v)", used, x)
	}
}

func TestCPUTicksAndSteal(t *testing.T) {
	dir := t.TempDir()
	stat := filepath.Join(dir, "stat")
	write := func(line string) {
		if err := os.WriteFile(stat, []byte(line+"\ncpu0 1 2 3 4 5 6 7 8 0 0\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cpu  100 0 50 800 10 0 0 40 7 0")
	a, err := readCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 40 {
		t.Fatalf("parsed %+v, want total 1000 (guest excluded) and steal 40", a)
	}
	write("cpu  200 0 100 1600 20 0 0 80 7 0")
	b, err := readCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got := stealFrac(a, b); got != 0.04 {
		t.Errorf("steal share %v, want 40/1000", got)
	}
}
