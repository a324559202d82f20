package main

import (
	"bytes"
	"testing"
	"time"

	"realroots/internal/trace"
)

// fakeClock lets a test set the recorder's time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) recorder() *recorder {
	epoch := time.Unix(0, 0)
	return &recorder{epoch: epoch, now: func() time.Time { return epoch.Add(c.t) }}
}

func TestSpanParentLinksAndSelfTime(t *testing.T) {
	clk := &fakeClock{}
	r := clk.recorder()
	ms := time.Millisecond

	r.begin("realroots.solve", 7, false) // 0: 0–100
	clk.t = 10 * ms
	r.begin("core.solve", 7, false) // 1: 10–90
	clk.t = 20 * ms
	r.begin("remseq.compute", 7, false) // 2: 20–50
	clk.t = 50 * ms
	r.end()
	clk.t = 60 * ms
	r.begin("tree.computepoly", 7, false) // 3: 60–80
	clk.t = 80 * ms
	r.end()
	clk.t = 90 * ms
	r.end()
	clk.t = 100 * ms
	r.end()
	r.begin("realroots.solve", 8, false) // 4: 100–130, a second input
	clk.t = 130 * ms
	r.end()

	wantParent := []int{-1, 0, 1, 1, -1}
	for i, s := range r.spans {
		if s.ID != i || s.Parent != wantParent[i] {
			t.Errorf("span %d (%s): id %d parent %d, want parent %d", i, s.Name, s.ID, s.Parent, wantParent[i])
		}
	}
	if r.spans[2].Req != 7 || r.spans[4].Req != 8 {
		t.Error("spans do not carry their input's request id")
	}
	self := selfTimes(r.spans)
	wantSelf := []time.Duration{20 * ms, 30 * ms, 30 * ms, 20 * ms, 30 * ms}
	for i := range self {
		if self[i] != wantSelf[i] {
			t.Errorf("self(%s) = %v, want %v", r.spans[i].Name, self[i], wantSelf[i])
		}
	}
	per := layerSelf(r.spans)
	for layer, want := range map[string]time.Duration{"realroots": 50 * ms, "core": 30 * ms, "remseq": 30 * ms, "tree": 20 * ms} {
		if per[layer] != want {
			t.Errorf("layer %s self %v, want %v", layer, per[layer], want)
		}
	}
}

// Overlapping children are covered once, and a child running past its
// parent's end is clipped to the parent.
func TestSelfTimeOverlapAndClipping(t *testing.T) {
	ms := time.Millisecond
	spans := []*span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Start: 30 * ms, End: 60 * ms},
		{ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms},
	}
	if got, want := selfTimes(spans)[0], 40*ms; got != want {
		t.Errorf("parent self %v, want %v (100 − |[10,60] ∪ [90,100]|)", got, want)
	}
}

// Reading the allocation counter is recorded as bench spans outside
// the measured span, so the layer's own time excludes it.
func TestAllocReadsStayOutsideTheSpan(t *testing.T) {
	r := newRecorder()
	r.begin("core.solve", 0, false)
	s := r.begin("remseq.compute", 0, true)
	buf := make([][]byte, 0, 4)
	for i := 0; i < 3; i++ {
		buf = append(buf, make([]byte, 1<<16))
	}
	r.end()
	r.end()
	if len(buf) != 3 {
		t.Fatal("allocations optimised away")
	}
	var bench int
	for _, sp := range r.spans {
		if sp.Name == "bench.memstats" {
			bench++
			if sp.Parent != 0 {
				t.Errorf("memstats span parent %d, want the enclosing core span", sp.Parent)
			}
			if sp.Start >= s.Start && sp.End <= s.End && sp.End > sp.Start {
				t.Error("memstats read inside the measured span")
			}
		}
	}
	if bench != 2 {
		t.Errorf("%d memstats spans, want 2", bench)
	}
	if s.Allocs < 3 {
		t.Errorf("span counted %d allocations, want ≥ 3", s.Allocs)
	}
}

func TestChromeExportValidates(t *testing.T) {
	clk := &fakeClock{}
	r := clk.recorder()
	r.begin("realroots.solve", 0, false)
	clk.t = time.Millisecond
	r.begin("interval.solve", 0, false)
	clk.t = 2 * time.Millisecond
	r.end()
	r.end()
	var buf bytes.Buffer
	if err := writeChrome(&buf, r.spans); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
