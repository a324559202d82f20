package main

import (
	"math"
	"testing"
)

func TestRankLeavesSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		rank   int
		beyond int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9}, // ⌈89.1⌉
		{1000, 0.99, 990, 10},
		{999, 0.99, 990, 9},
		{1, 0.99, 1, 0},
		{10, 0, 1, 9},
		{10, 1, 10, 0},
	} {
		if got := rank(tc.n, tc.q); got != tc.rank {
			t.Errorf("rank(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.rank)
		}
		if got := beyond(tc.n, tc.q); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyond)
		}
	}
}

func TestHighestResolvedNeedsTenBeyond(t *testing.T) {
	qs := []float64{0.9, 0.95, 0.99, 0.999}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 0},
		{99, 0},
		{100, 0.9},
		{199, 0.9},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	} {
		got := highestResolved(tc.n, qs...)
		if got != tc.want {
			t.Errorf("highestResolved(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if got > 0 && beyond(tc.n, got) < minBeyond {
			t.Errorf("highestResolved(%d) = %v leaves %d beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1, unsorted input
	}
	for q, want := range map[float64]float64{0.5: 100, 0.9: 180, 0.95: 190, 0.99: 198, 1: 200} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1…200, %v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile modified its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
	for _, xs := range [][]float64{nil, {2, 0}, {2, -1}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, got)
		}
	}
}
