package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/exec"
	"time"
)

// workerProcs is how many processes a --trace 0 run measures in, one
// after another. On a shared host one process runs at a steady speed
// for its whole life, but that speed differs from the next process's
// by up to a tenth. Each process solves every other case, the even and
// odd processes taking turns, so every case is solved in half of the
// processes, spread over the whole run, and its time is the median over
// them: one fast or slow process, or a slow minute of the host, neither
// sets a case's time nor shifts all of them.
const workerProcs = 10

// A job is what the parent sends a worker process on standard input:
// the workload, its seed, and the reference answers the parent computed
// in set-up, so a worker only rebuilds the inputs.
type job struct {
	Workload  string                   `json:"workload"`
	Seed      int64                    `json:"seed"`
	Index     int                      `json:"index"`
	Cases     []int                    `json:"cases"` // indices into solveEnv.cases, in solving order
	Seconds   float64                  `json:"seconds"`
	MemSolves int                      `json:"memSolves"`
	Refs      []map[uint][]wireRefRoot `json:"refs"` // per instance, by µ
}

type wireRefRoot struct {
	Val  string `json:"val"`
	Mult int    `json:"mult"`
}

// A sample is one timed solve: the case (an index into solveEnv.cases),
// the worker count, the wall time and the process's CPU time.
type sample struct {
	Case  int     `json:"case"`
	P     int     `json:"p"`
	Ms    float64 `json:"ms"`
	CPUMs float64 `json:"cpuMs"`
}

// A report is what a worker prints on standard output.
type report struct {
	Samples   []sample  `json:"samples"`
	Peaks     []float64 `json:"peaks"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errs      []string  `json:"errs"`
	Wrong     []string  `json:"wrong"`
}

func encodeRefs(insts []*instance) []map[uint][]wireRefRoot {
	out := make([]map[uint][]wireRefRoot, len(insts))
	for i, in := range insts {
		out[i] = map[uint][]wireRefRoot{}
		for mu, rs := range in.ref {
			for _, r := range rs {
				out[i][mu] = append(out[i][mu], wireRefRoot{r.val.RatString(), r.mult})
			}
		}
	}
	return out
}

func decodeRefs(w map[uint][]wireRefRoot) (map[uint][]refRoot, error) {
	out := map[uint][]refRoot{}
	for mu, rs := range w {
		for _, r := range rs {
			v, ok := new(big.Rat).SetString(r.Val)
			if !ok {
				return nil, fmt.Errorf("reference root %q", r.Val)
			}
			out[mu] = append(out[mu], refRoot{v, r.Mult})
		}
	}
	return out, nil
}

// runWorker is the body of a worker process: it reads a job, rebuilds
// the inputs, solves whole cycles of its cases for the job's time,
// makes its share of the memory pass, and prints a report.
func runWorker(stdin io.Reader, stdout, log io.Writer) int {
	var j job
	if err := json.NewDecoder(stdin).Decode(&j); err != nil {
		fmt.Fprintln(log, "perfbench worker: job:", err)
		return 1
	}
	env, err := buildInputs(j.Workload == "solve-large", j.Seed)
	if err == nil && len(j.Refs) != len(env.insts) {
		err = fmt.Errorf("%d references for %d inputs", len(j.Refs), len(env.insts))
	}
	for i := 0; err == nil && i < len(env.insts); i++ {
		env.insts[i].ref, err = decodeRefs(j.Refs[i])
	}
	if err != nil {
		fmt.Fprintln(log, "perfbench worker:", err)
		return 1
	}
	res := newResult()
	rep := report{Samples: env.cycles(res, j.Cases, j.Index, time.Duration(j.Seconds*float64(time.Second)))}
	rep.Peaks = memoryPass(res, env, j.Index, j.MemSolves)
	rep.Attempted, rep.Failed, rep.Errs, rep.Wrong = res.attempted, res.failed, res.errs, res.wrong
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintln(log, "perfbench worker:", err)
		return 1
	}
	return 0
}

// runWorkerProc runs one worker process of this executable and waits
// for it to end; the worker's standard error goes to log.
func runWorkerProc(j job, log io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "--worker")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &out, log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker %d: %w", j.Index, err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("worker %d: report: %w", j.Index, err)
	}
	return &rep, nil
}
