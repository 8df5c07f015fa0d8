package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"
)

// e2eMetric is one end-to-end metric of the benchmark definition.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]e2eMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

// recordLine is how a record is printed and stored: one JSON line.
type recordLine struct {
	Record *record `json:"record"`
}

// parseRun extracts the record line from one run's standard output.
func parseRun(out []byte) (*record, error) {
	for _, line := range bytes.Split(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"record":`)) {
			var r recordLine
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, err
			}
			return r.Record, nil
		}
	}
	return nil, fmt.Errorf("no record line in output")
}

// steadyReport runs the untraced workload n times, each in a fresh process
// with its own seed, and reports every end-to-end metric's median,
// quartiles, quartile spread and max/min ratio. A metric whose spread
// exceeds its bound is flagged; so is one above a third of it, the margin
// a steady benchmark keeps.
func steadyReport(w io.Writer, benchPath, name string, seed int64, seconds, n int, out string) error {
	defs, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []*record
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 3*runLimit)
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		stdout, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		rec, err := parseRun(stdout)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		fmt.Fprintf(w, "run %2d seed %d: correct=%v attempted=%d failed=%d wall=%.1fs\n",
			i, rec.Seed, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, time.Since(t0).Seconds())
		recs = append(recs, rec)
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "workload %s, %d runs, host %s\n", name, n, recs[0].Host.fingerprint())
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tmax/min\tbound\tverdict")
	for _, d := range defs {
		xs := metricValues(recs, d.Name)
		if len(xs) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.3f\tMISSING\n", d.Name, d.Unit, d.Bound)
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / math.Abs(q2)
		verdict := "ok"
		switch {
		case spread > d.Bound:
			verdict = "SPREAD > BOUND"
		case spread > d.Bound/3:
			verdict = "spread > bound/3"
		}
		lo, hi := minMax(xs)
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.4f\t%.3f\t%s\n", d.Name, d.Unit, q2, q1, q3, spread, hi/lo, d.Bound, verdict)
	}
	return tw.Flush()
}

func metricValues(recs []*record, name string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(recordLine{rec}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a file of record lines, as --out writes them or as
// collected from runs' output.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r recordLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Record == nil {
			return nil, fmt.Errorf("%s: not a record line: %q", path, sc.Bytes())
		}
		recs = append(recs, r.Record)
	}
	return recs, sc.Err()
}

// compareRecords compares head records against base records per workload
// and end-to-end metric: medians, the head/base ratio, and whether head is
// worse than base by more than the metric's bound. Records from hosts
// with different fingerprints are refused, as are traced records, whose
// metrics are per-layer.
func compareRecords(w io.Writer, benchPath, basePath, headPath string) error {
	defs, err := readBounds(benchPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	all := append(append([]*record(nil), base...), head...)
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("need records on both sides")
	}
	for _, r := range all {
		if r.Host.fingerprint() != all[0].Host.fingerprint() {
			return fmt.Errorf("refusing to compare results from different hosts: %s vs %s", all[0].Host.fingerprint(), r.Host.fingerprint())
		}
		if r.Trace != 0 {
			return fmt.Errorf("refusing to compare a traced record (%s seed %d)", r.Workload, r.Seed)
		}
	}
	byWorkload := func(recs []*record) map[string][]*record {
		g := map[string][]*record{}
		for _, r := range recs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for n := range bw {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "host %s\n", all[0].Host.fingerprint())
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\thead median\thead/base\tbase spread\tbound\tverdict")
	for _, n := range names {
		if len(hw[n]) == 0 {
			continue
		}
		for _, d := range defs {
			bx, hx := metricValues(bw[n], d.Name), metricValues(hw[n], d.Name)
			if len(bx) == 0 || len(hx) == 0 {
				continue
			}
			bq1, bm, bq3 := quartiles(bx)
			_, hm, _ := quartiles(hx)
			worse := hm/bm - 1
			if d.Better == "higher" {
				worse = 1 - hm/bm
			}
			spread := (bq3 - bq1) / math.Abs(bm)
			verdict := "no worse than bound"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
			case spread > d.Bound:
				verdict = "unresolved (spread > bound)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.3f\t%s\n", n, d.Name, bm, hm, hm/bm, spread, d.Bound, verdict)
		}
	}
	return tw.Flush()
}
