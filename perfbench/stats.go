package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to be resolved: a p90 from 30 samples is the 3rd-largest
// value, not a percentile.
const minBeyond = 10

// rank returns the 1-based nearest rank of quantile q among n sorted
// samples: the smallest r with r/n ≥ q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// percentile returns the nearest-rank q-quantile of xs (unsorted; xs
// is not modified), or NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), q)-1]
}

// highestResolved returns the highest of the candidate quantiles that
// leaves at least minBeyond of n samples above it, or 0 when none does.
func highestResolved(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if q > best && beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// median returns the middle value of xs (mean of the two middle values
// for even counts), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of xs, or NaN when xs is empty or
// holds a value ≤ 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reached has no share to report).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
