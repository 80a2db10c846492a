// Command perfbench is the repository benchmark. It runs one workload
// in-process against the ecoscale packages, times the calls it makes into
// their public functions, checks every output, and prints one JSON result
// as the last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload esuite --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the timed
// phase into an untraced and a profiled half and prints the per-layer
// metrics.
// --steady K runs the workload K times, each in its own process with the
// next seed, and prints the spread of every end-to-end metric.
// --record rewrites the reference digests at the default seed.
// README.md in this directory names the workloads and their metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// defaultSeed is the seed the reference digests are recorded at.
const defaultSeed = 1

// refPath is the reference file, relative to the repository root.
const refPath = "perfbench/reference.json"

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: esuite, machine_hw or esuite_warm")
	seed := fs.Int64("seed", defaultSeed, "input seed; only machine_hw has seeded inputs, the scenarios fix esuite's")
	seconds := fs.Float64("seconds", 30, "length of the timed phase, in seconds")
	traced := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 profiles half the timed phase and prints per-layer metrics")
	steadyRuns := fs.Int("steady", 0, "run the workload this many times in child processes and print each end-to-end metric's spread")
	record := fs.Bool("record", false, "rewrite "+refPath+" at the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordReference(refPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *steadyRuns > 0 {
		exe, err := os.Executable()
		if err == nil {
			err = steady(stdout, stderr, exe, *name, *seed, *seconds, *steadyRuns)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	ref, err := loadReference(refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: scratch directory:", err)
		return 1
	}
	defer os.RemoveAll(work)

	env := &env{
		seed:    *seed,
		phase:   time.Duration(*seconds * float64(time.Second)),
		ref:     ref,
		workdir: work,
		log:     stderr,
	}
	var res result
	if *traced == 1 {
		res, err = runTraced(w, env)
	} else {
		res, err = runUntraced(w, env)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := map[string]map[string]any{"host": {
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"runner_parallel": w.parallel,
	}}
	if err := printJSON(stdout, host); err != nil {
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// reference holds the digests outputs are checked against. Esuite holds
// one digest per scenario table; MachineHW is machine_hw's counter
// digest at Seed.
type reference struct {
	Seed      int64             `json:"seed"`
	Esuite    map[string]string `json:"esuite"`
	MachineHW string            `json:"machine_hw"`
}

func loadReference(path string) (reference, error) {
	var ref reference
	b, err := os.ReadFile(path)
	if err != nil {
		return ref, fmt.Errorf("reference digests: %w (run from the repository root)", err)
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return ref, fmt.Errorf("reference digests %s: %w", path, err)
	}
	return ref, nil
}

// recordReference runs one esuite pass and one machine_hw pass at the
// default seed and writes their digests to path.
func recordReference(path string) error {
	scens, _, err := buildSuite()
	if err != nil {
		return err
	}
	ref := reference{Seed: defaultSeed, Esuite: map[string]string{}}
	for _, s := range scens {
		d, err := scenarioDigest(s)
		if err != nil {
			return err
		}
		ref.Esuite[s.ID] = d
	}
	m, err := newMachineBench(&env{seed: defaultSeed, log: io.Discard})
	if err != nil {
		return err
	}
	p := m.pass()
	if p.failed != 0 {
		return fmt.Errorf("machine_hw: %d of %d tasks failed", p.failed, p.attempted)
	}
	ref.MachineHW = p.digest
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
