package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"realroots"
)

// solveEnv is the set-up of a solve workload: its inputs, their
// reference answers, and the seed-shuffled order the closed loop walks.
type solveEnv struct {
	large   bool
	insts   []*instance
	cases   []solveCase
	order   []int
	profile realroots.Profile
}

func setupSolve(large bool, seed int64) (*solveEnv, error) {
	env, err := buildInputs(large, seed)
	if err != nil {
		return nil, err
	}
	err = parallelEach(len(env.insts), func(i int) error {
		in := env.insts[i]
		var err error
		if in.ref, err = sturmReference(in.p, in.mus); err != nil {
			return fmt.Errorf("reference for input %d (%s, n=%d): %w", in.id, in.kind, in.n, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return env, nil
}

// buildInputs makes a solve workload's inputs from the seed, without
// their reference answers.
func buildInputs(large bool, seed int64) (*solveEnv, error) {
	env := &solveEnv{large: large, profile: realroots.ProfilePaper}
	specs := smallSpecs(seed)
	if large {
		env.profile = realroots.ProfileFast
		specs = largeSpecs(seed)
	}
	env.insts = make([]*instance, len(specs))
	err := parallelEach(len(specs), func(i int) error {
		var err error
		env.insts[i], err = specs[i].build()
		return err
	})
	if err != nil {
		return nil, err
	}
	env.cases = casesOf(env.insts)
	env.order = rand.New(rand.NewSource(seed)).Perm(len(env.cases))
	return env, nil
}

// solveOnce runs one public-API solve at P workers, checks it, and
// returns its wall time and the CPU time the process spent in it.
func (env *solveEnv) solveOnce(res *result, c solveCase, workers int) (wall, cpu time.Duration) {
	opts := &realroots.Options{Precision: c.mu, Workers: workers, Profile: env.profile}
	c0 := cpuTime()
	t0 := time.Now()
	r, err := realroots.FindRoots(c.inst.coeffs, opts)
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	var diff error
	if err == nil {
		diff = compareRoots(fromResult(r), c.inst.ref[c.mu])
	}
	res.note(fmt.Sprintf("input %d µ=%d P=%d", c.inst.id, c.mu, workers), err, diff)
	return wall, cpu
}

// measureSolve runs the closed loop in workerProcs processes, one
// after another, and reports the end-to-end metrics. Each process
// solves whole cycles over its share of the cases, every case at P=1
// and at P=2 back to back. A case's time is the median over all its
// solves in all the processes, and the metrics are statistics of the
// per-case times, so every input weighs the same and a slow stretch of
// the host moves a tail no more than the median.
//
// The typical solve is the geometric mean over the cases, not their
// median: solve-small's cases near the median differ by 2–3% a rank,
// so which inputs a seed draws moved the median by up to a sixth.
//
// The cpu_* metrics and throughput are CPU time of the P=1 solves, and
// p2_cpu_ratio is the CPU time of the P=2 solves over that of the P=1
// ones. On a shared host the hypervisor takes 15–40% of the vCPUs'
// time for other guests, varying from one minute to the next; wall
// time counts those gaps and CPU time does not. The wall-time speedup
// ΣT(P=1)/ΣT(P=2) is only printed: it measures whether the host ran
// the second vCPU, and read from 0.59 to 1.34 over twenty runs.
func measureSolve(env *solveEnv, name string, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	j := job{Workload: name, Seed: seed, Seconds: budget.Seconds() * 0.85 / workerProcs, MemSolves: 6, Refs: encodeRefs(env.insts)}
	if env.large {
		j.MemSolves = 2
	}
	res := newResult()
	var samples []sample
	var peaks []float64
	for w := 0; w < workerProcs; w++ {
		j.Index, j.Cases = w, procCases(env.order, w)
		rep, err := runWorkerProc(j, log)
		if err != nil {
			return nil, err
		}
		samples = append(samples, rep.Samples...)
		peaks = append(peaks, rep.Peaks...)
		res.attempted += rep.Attempted
		res.failed += rep.Failed
		res.errs = append(res.errs, rep.Errs...)
		res.wrong = append(res.wrong, rep.Wrong...)
	}
	wall := caseMedians(samples, func(s sample) float64 { return s.Ms })
	cpu := caseMedians(samples, func(s sample) float64 { return s.CPUMs })
	var cpu1, cpu2, wall1, wall2 []float64
	for c := range env.cases {
		cpu1 = append(cpu1, cpu[[2]int{c, 1}])
		cpu2 = append(cpu2, cpu[[2]int{c, 2}])
		wall1 = append(wall1, wall[[2]int{c, 1}])
		wall2 = append(wall2, wall[[2]int{c, 2}])
	}
	fmt.Fprintf(log, "%d solves of %d cases at P=1 and at P=2 in %d processes; per-case medians:\n", len(samples), len(env.cases), workerProcs)
	logLatency(log, "  CPU P=1", cpu1)
	logLatency(log, "  wall P=1", wall1)
	logLatency(log, "  wall P=2", wall2)
	logLatency(log, "  CPU P=2", cpu2)
	fmt.Fprintf(log, "speedup ΣT(P=1)/ΣT(P=2) = %.4f (wall, not a metric)\n", ratio(sum(wall1), sum(wall2)))
	fmt.Fprintf(log, "memory pass: peak RSS of %d solves at the largest n: %.1f MiB\n", len(peaks), peaks)
	res.set("cpu_geomean_ms", geomean(cpu1), "ms")
	res.set("cpu_p90_ms", percentile(cpu1, 0.9), "ms")
	res.set("solves_per_cpu_s", ratio(float64(len(cpu1)), sum(cpu1)/1e3), "1/s")
	res.set("p2_cpu_ratio", ratio(sum(cpu2), sum(cpu1)), "x")
	res.set("peak_rss_mb", median(peaks), "MiB")
	return res, nil
}

// caseMedians returns the median of v over the samples of each
// (case, P) pair.
func caseMedians(samples []sample, v func(sample) float64) map[[2]int]float64 {
	by := map[[2]int][]float64{}
	for _, s := range samples {
		k := [2]int{s.Case, s.P}
		by[k] = append(by[k], v(s))
	}
	out := make(map[[2]int]float64, len(by))
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}

// procCases returns the cases worker w solves: those at the positions
// of order with the parity of w.
func procCases(order []int, w int) []int {
	var out []int
	for j, c := range order {
		if j%2 == w%2 {
			out = append(out, c)
		}
	}
	return out
}

// cycles solves each of the cases at P=1 and at P=2, alternating which
// runs first, in whole cycles for about the given time (at least one
// cycle; another starts while at most half of one would run past the
// end), and returns every solve's sample. A P=1 solve runs with
// GOMAXPROCS 1, as on one processor: with two, its process also burns
// CPU time in idle scheduler threads spinning for work.
func (env *solveEnv) cycles(res *result, cases []int, index int, slice time.Duration) []sample {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	var out []sample
	start := time.Now()
	var cycle time.Duration
	for k := 0; k == 0 || time.Since(start)+cycle/2 <= slice; k++ {
		c0 := time.Now()
		for j, idx := range cases {
			order := [2]int{1, 2}
			if (j+k+index)%2 == 1 {
				order = [2]int{2, 1}
			}
			for _, p := range order {
				runtime.GOMAXPROCS(min(p, procs))
				d, cpu := env.solveOnce(res, env.cases[idx], p)
				out = append(out, sample{idx, p, ms(d), ms(cpu)})
			}
		}
		cycle = time.Since(c0)
	}
	return out
}

// memoryPass makes n P=1 solves of the cases of the workload's largest
// inputs, starting at a case that depends on the worker's index, and
// returns each solve's peak resident set size in MiB. Each solve
// starts from a collected heap returned to the OS, with the peak reset,
// so its peak depends on the solve and not on where the garbage
// collector happened to run; a solve that still caught an unlucky
// collection is outvoted by the median.
func memoryPass(res *result, env *solveEnv, index, n int) []float64 {
	top := 0
	for _, in := range env.insts {
		top = max(top, in.n)
	}
	var cases []solveCase
	for _, idx := range env.order {
		if c := env.cases[idx]; c.inst.n == top {
			cases = append(cases, c)
		}
	}
	// One P keeps the collector's mark worker on the solve's vCPU: with
	// two, how far the heap overshoots its goal depends on how much of
	// each vCPU the host lends the process while the mark runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	peaks := make([]float64, n)
	for i := range peaks {
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		env.solveOnce(res, cases[(index*n+i)%len(cases)], 1)
		peaks[i] = peakRSSMB()
	}
	return peaks
}
