// Command addsperf is the repository benchmark. It drives the compiler's
// layers from outside — parser, type checker, normalizer, path-matrix
// engine, alias oracles, dependence graphs, transformations, machine
// simulators and the analysis service — in the order the product runs them,
// checks every output against an independent reference (the paper's own
// answers and the AST interpreter), and prints one JSON result line.
//
//	go run . -workload paper -seed 1 -seconds 10 -trace 0
//
// Workloads: paper (the paper's programs compiled, transformed and
// simulated), gen (a seeded stream of unique generated programs through the
// /v1/analyze work), service (an in-process analysis server under a closed
// loop of clients). With -trace 0 the result carries the end-to-end metrics;
// with -trace 1 the per-layer metrics, taken from spans the benchmark
// records around each layer call. METRICS.md documents every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("addsperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper, gen or service")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set up once, print the set-up time in seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: addsperf -workload paper|gen|service -seed N -seconds S -trace 0|1")
		return 2
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		trace:     *traceFlag == 1,
		tr:        newTracer(*traceFlag == 1),
		workers:   nproc(),
		setupOnly: *probe,
	}
	if *probe {
		out, err := w(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "addsperf:", err)
			return 1
		}
		fmt.Println(out.values["setup_s"])
		return 0
	}
	var setups []float64
	if !cfg.trace { // setup_s is an end-to-end metric, printed untraced
		var err error
		if setups, err = probeSetups(*workload, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "addsperf:", err)
			return 1
		}
	}
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "addsperf:", err)
		return 1
	}
	out.values["setup_s"] = percentile(append(setups, out.values["setup_s"]), 0.5)
	out.printFailures(os.Stderr)
	if missing := out.missingEndToEnd(); len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "addsperf: workload did not measure", missing)
		return 1
	}
	if cfg.trace {
		if err := cfg.tr.writeFile(traceDir, *workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "addsperf:", err)
			return 1
		}
		if err := compareCounters(os.Stderr, traceDir, *workload, *seed, out.counters); err != nil {
			fmt.Fprintln(os.Stderr, "addsperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(out.result(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "addsperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setupProbes is how many extra set-ups each run times, each in a fresh
// process of its own, so every one meets cold process-wide caches as a
// real process does. setup_s is the median of these and the run's own
// set-up.
const setupProbes = 8

// probeSetups runs the workload's set-up setupProbes times, one fresh
// process after another, and returns the set-up times in seconds.
func probeSetups(workload string, seed int64, seconds float64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), probeLimit)
		cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-setup-probe")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

const probeLimit = 60 * time.Second

// traceDir, relative to the checkout root the benchmark runs from, holds
// the traced run's span and counter files (run.py builds there too).
const traceDir = ".bench_build"

// config is what every workload receives.
type config struct {
	seed    int64
	window  time.Duration
	trace   bool
	tr      *tracer
	workers int
	// setupOnly stops a workload right after its set-up, which it has
	// timed into setup_s.
	setupOnly bool
}

var workloads = map[string]func(config) (*outcome, error){
	"paper":   runPaper,
	"gen":     runGen,
	"service": runService,
}
