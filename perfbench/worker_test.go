package main

import (
	"math/big"
	"testing"
)

func TestProcCasesGivesEachCaseToHalfTheWorkers(t *testing.T) {
	for _, n := range []int{1, 7, 14, 240} {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		seen := make([]int, n)
		for w := 0; w < workerProcs; w++ {
			for _, c := range procCases(order, w) {
				seen[c]++
			}
		}
		for c, k := range seen {
			if k != workerProcs/2 {
				t.Errorf("n=%d: case %d goes to %d workers, want %d", n, c, k, workerProcs/2)
			}
		}
	}
}

func TestCaseMediansGroupByCaseAndP(t *testing.T) {
	samples := []sample{
		{Case: 0, P: 1, Ms: 3}, {Case: 0, P: 1, Ms: 1}, {Case: 0, P: 1, Ms: 2},
		{Case: 0, P: 2, Ms: 10, CPUMs: 4}, {Case: 0, P: 2, Ms: 20, CPUMs: 6},
		{Case: 1, P: 1, Ms: 7},
	}
	wall := caseMedians(samples, func(s sample) float64 { return s.Ms })
	want := map[[2]int]float64{{0, 1}: 2, {0, 2}: 15, {1, 1}: 7}
	if len(wall) != len(want) {
		t.Fatalf("got %d groups, want %d", len(wall), len(want))
	}
	for k, v := range want {
		if wall[k] != v {
			t.Errorf("wall median of %v = %v, want %v", k, wall[k], v)
		}
	}
	if got := caseMedians(samples, func(s sample) float64 { return s.CPUMs })[[2]int{0, 2}]; got != 5 {
		t.Errorf("CPU median of case 0 at P=2 = %v, want 5", got)
	}
}

func TestRefsSurviveTheJobEncoding(t *testing.T) {
	in := &instance{ref: map[uint][]refRoot{
		16: {{big.NewRat(-3, 4), 1}, {big.NewRat(5, 1<<16), 2}},
		32: {{big.NewRat(7, 1<<32), 3}},
	}}
	wire := encodeRefs([]*instance{in})
	got, err := decodeRefs(wire[0])
	if err != nil {
		t.Fatal(err)
	}
	for mu, want := range in.ref {
		if err := compareRoots(got[mu], want); err != nil {
			t.Errorf("µ=%d: %v", mu, err)
		}
	}
	if _, err := decodeRefs(map[uint][]wireRefRoot{16: {{"x/2", 1}}}); err == nil {
		t.Error("decodeRefs accepted a malformed value")
	}
}
