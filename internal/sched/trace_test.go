package sched_test

import (
	"testing"
	"time"

	"realroots/internal/sched"
	"realroots/internal/trace"
)

// The tracer is the pool's richest subscriber: these tests pin what it
// records from the stream (worker lanes, queue-depth samples, tags).

func TestTracerRecordsWorkerSpans(t *testing.T) {
	tr := trace.New()
	p := sched.NewPool(3)
	p.SetObserver(tr)
	const n = 24
	for i := 0; i < n; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Submit(func() {}) // default tag
	p.Wait()
	p.Close()

	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lanes := tr.Lanes()
	if len(lanes) == 0 || len(lanes) > 3 {
		t.Fatalf("got %d lanes, want 1..3", len(lanes))
	}
	total, tagged := 0, 0
	for _, l := range lanes {
		if l.ID < 0 || l.ID > 2 {
			t.Errorf("unexpected lane ID %d", l.ID)
		}
		for _, s := range l.Spans() {
			if s.Cat != trace.CatTask {
				t.Errorf("span cat = %q, want task", s.Cat)
			}
			total++
			if s.Name == "interval" {
				tagged++
			}
		}
	}
	if total != n+1 {
		t.Errorf("recorded %d spans, want %d", total, n+1)
	}
	if tagged != n {
		t.Errorf("%d interval-tagged spans, want %d", tagged, n)
	}
	if len(tr.Counters()) != total {
		t.Errorf("%d queue-depth samples, want %d", len(tr.Counters()), total)
	}
}

func TestTracedGateAndParallelForTags(t *testing.T) {
	tr := trace.New()
	p := sched.NewPool(2)
	p.SetObserver(tr)
	g := sched.NewGateTagged(p, 2, "sort", func() {})
	_ = p.ParallelForTagged("precompute", 8, func(i int) {})
	g.Done()
	g.Done()
	p.Wait()
	p.Close()

	byTag := map[string]int{}
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			byTag[s.Name]++
		}
	}
	if byTag["precompute"] != 8 {
		t.Errorf("precompute spans = %d, want 8 (one per iteration)", byTag["precompute"])
	}
	if byTag["sort"] != 1 {
		t.Errorf("sort spans = %d, want 1", byTag["sort"])
	}
}

func TestTracedSimulatedPool(t *testing.T) {
	tr := trace.New()
	p := sched.NewSimulatedPool(4)
	p.SetObserver(tr)
	for i := 0; i < 6; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Wait()
	p.Close()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lanes := tr.Lanes()
	if len(lanes) != 1 {
		t.Fatalf("simulated pool has %d lanes, want 1 (one real worker)", len(lanes))
	}
	if got := len(lanes[0].Spans()); got != 6 {
		t.Errorf("spans = %d, want 6", got)
	}
}

// TestTracedQueueWaitCountsFromSubmission: a task's queue wait runs
// from its submission, not from when the observer was installed.
func TestTracedQueueWaitCountsFromSubmission(t *testing.T) {
	const idle = 50 * time.Millisecond
	tr := trace.New()
	p := sched.NewPool(1)
	p.SetObserver(tr)
	time.Sleep(idle)
	p.SubmitTagged("interval", func() {})
	p.Wait()
	p.Close()
	spans := tr.Lanes()[0].Spans()
	if len(spans) != 1 || spans[0].Wait < 0 || spans[0].Wait >= idle {
		t.Fatalf("spans = %+v, want one with 0 ≤ Wait < %v", spans, idle)
	}
}
