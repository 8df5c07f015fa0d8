package main

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"incranneal"
)

// A served response must be bit-identical to the standalone solve of the
// same request and seed, for a problem that fits the device whole and for
// one the server partitions.
func TestServedResponseMatchesStandalone(t *testing.T) {
	srv, err := startServer(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	for _, queries := range []int{30, 96} { // 180 plans fit the device; 576 do not
		p, err := sweepInstance(queries, int64(queries), meanDensity, meanDensity)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		const seed, sweeps = 11, 4000
		body := fmt.Sprintf(`{"problem":%s,"options":{"runs":%d,"totalSweeps":%d,"seed":%d}}`, js, runs, sweeps, seed)
		rep, err := post(context.Background(), client, srv.url, []byte(body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := incranneal.Solve(context.Background(), p, incranneal.Options{
			Capacity: capacity, Runs: runs, TotalSweeps: sweeps, Seed: seed, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := rep.resp
		if (queries*ppq > capacity) != (got.Partitions > 1) {
			t.Errorf("q=%d: %d partitions", queries, got.Partitions)
		}
		if got.Cost != want.Cost || got.Sweeps != want.Sweeps || got.Partitions != want.NumPartitions {
			t.Errorf("q=%d: served cost %v sweeps %d partitions %d, standalone %v %d %d",
				queries, got.Cost, got.Sweeps, got.Partitions, want.Cost, want.Sweeps, want.NumPartitions)
		}
		for q := range want.Solution.Selected {
			if got.Selected[q] != want.Solution.Selected[q] {
				t.Fatalf("q=%d: query %d served plan %d, standalone %d", queries, q, got.Selected[q], want.Solution.Selected[q])
			}
		}
		if err := verify(p, got.Selected, got.Cost); err != nil {
			t.Errorf("q=%d: %v", queries, err)
		}
	}
}
