package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A result collects one run's outcome: operations attempted and
// failed, wrong answers, and the metrics it measured.
type result struct {
	attempted, failed int
	errs, wrong       []string // the first errors; every wrong answer
	metrics           map[string]metricValue
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

// set records a metric; a statistic of an empty sample (NaN) reads 0.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// note records one attempted operation: err is its error, and diff a
// difference between its answer and the reference (a wrong answer).
func (r *result) note(label string, err, diff error) bool {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", label, err))
		}
		return false
	case diff != nil:
		r.failed++
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %v", label, diff))
		return false
	}
	return true
}

// logLatency prints a latency sample's median and tail percentiles with
// the sample count and how many samples lie beyond each.
func logLatency(w io.Writer, name string, xs []float64) {
	n := len(xs)
	fmt.Fprintf(w, "%s: n=%d p50=%.3fms p90=%.3fms (%d beyond)", name, n, percentile(xs, 0.5), percentile(xs, 0.9), beyond(n, 0.9))
	if q := highestResolved(n, 0.9, 0.95, 0.99, 0.999); q > 0.9 {
		fmt.Fprintf(w, " p%s=%.3fms (%d beyond)", strconv.FormatFloat(100*q, 'f', -1, 64), percentile(xs, q), beyond(n, q))
	}
	fmt.Fprintln(w)
}

// cpuTime returns the user and system CPU time the process has used,
// all threads together. Linux keeps it net of the time the hypervisor
// ran other guests on the vCPU (steal), which wall time includes.
func cpuTime() time.Duration {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		return 0
	}
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) to
// its current resident set size, where Linux supports it.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in
// MiB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
