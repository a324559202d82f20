// Command perfbench is the repository's benchmark. One run generates a
// workload's inputs from a seed, measures it for a fixed time, checks
// every answer against an independent reference, and prints one JSON
// line of metrics:
//
//	go run . --workload solve-small --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with all tracing off, in
// worker processes of this binary (--worker) that it runs one after
// another.
// --trace 1 instead replays the workload through each layer's public
// functions with spans and counters around every call and prints the
// per-layer metrics; it also writes the spans as Chrome trace-event
// JSON and a table of self time per layer under .bench_build/perfbench.
// README.md lists the workloads and metrics.
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

// setupReps is how many times a run sets its workload up; setup_s is
// the median of their CPU times.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "solve-small | solve-large")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement time")
	traced := fs.Int("trace", 0, "1 = traced per-layer run")
	worker := fs.Bool("worker", false, "measure one share of a run in this process (the job comes on standard input)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(1)
	}
	if *worker {
		return runWorker(os.Stdin, stdout, stderr)
	}
	budget := time.Duration(*seconds) * time.Second

	var setup func() error
	var measure func() (*result, error)
	switch *name {
	case "solve-small", "solve-large":
		var env *solveEnv
		setup = func() (err error) { env, err = setupSolve(*name == "solve-large", *seed); return err }
		measure = func() (*result, error) {
			if *traced == 1 {
				return traceSolve(env, *name, *seed, stderr)
			}
			return measureSolve(env, *name, *seed, budget, stderr)
		}
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	setups := make([]float64, setupReps)
	for i := range setups {
		// Each set-up, and then the measurement, starts from a heap
		// without the previous set-up's garbage.
		runtime.GC()
		c0 := cpuTime()
		if err := setup(); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		setups[i] = (cpuTime() - c0).Seconds()
	}
	fmt.Fprintf(stderr, "set-up: %v CPU s\n", setups)
	runtime.GC()
	res, err := measure()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 0 {
		res.set("setup_s", median(setups), "s")
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "FAILED:", e)
	}
	for _, w := range res.wrong {
		fmt.Fprintln(stderr, "WRONG:", w)
	}
	out, err := json.Marshal(output{Correct: len(res.wrong) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if len(res.wrong) > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}
