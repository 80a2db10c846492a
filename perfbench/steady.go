package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strconv"
)

// steady runs the workload k times, each in a child process with the
// next seed, and prints for every end-to-end metric its median,
// quartiles, the quartile distance as a share of the median, and the
// max/min ratio. These spreads set the bounds in BENCHMARK.json.
func steady(stdout, stderr io.Writer, exe, name string, seed int64, seconds float64, k int) error {
	if k < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	vals := map[string][]float64{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d operations failed", i+1, s, res.Failed, res.Attempted)
		}
		for n, m := range res.Metrics {
			vals[n] = append(vals[n], m.Value)
		}
		fmt.Fprintf(stderr, "perfbench: run %d of %d done\n", i+1, k)
	}
	fmt.Fprintf(stdout, "%s: %d runs, seeds %d..%d\n", name, k, seed, seed+int64(k)-1)
	fmt.Fprintf(stdout, "%-14s %12s %12s %12s %8s %12s %12s %8s\n",
		"metric", "q1", "median", "q3", "iqr/med", "min", "max", "max/min")
	for _, d := range endToEndDefs {
		xs := vals[d.name]
		q := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(stdout, "%-14s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %8.4f\n",
			d.name, q[0], q[1], q[2], (q[2]-q[0])/q[1], lo, hi, hi/lo)
	}
	return nil
}

// lastResult parses the result line a run ends with.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
