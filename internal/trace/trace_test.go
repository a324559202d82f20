package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"realroots/internal/sched"
)

// TestObserveStream pins how the tracer records a solve's stream:
// phases and the orchestrator's tasks on the control lane, pool tasks
// on worker lanes with their queue wait, one depth sample per dequeue.
func TestObserveStream(t *testing.T) {
	tr := New()
	for _, e := range []sched.Event{
		{Kind: sched.PhaseBegin, Name: "solve", Worker: sched.ControlLane},
		{Kind: sched.TaskStart, Name: "sort", Worker: sched.ControlLane},
		{Kind: sched.TaskDone, Name: "sort", Worker: sched.ControlLane},
		{Kind: sched.TaskStart, Name: "interval", Worker: 1, Wait: 5 * time.Microsecond, Depth: 4},
		{Kind: sched.TaskPanic, Name: "interval", Worker: 1},
		{Kind: sched.TaskDone, Name: "interval", Worker: 1},
		{Kind: sched.PhaseEnd, Name: "solve", Worker: sched.ControlLane},
	} {
		tr.Observe(e)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	lanes := tr.Lanes()
	if len(lanes) != 2 || lanes[0].Name != "control" || lanes[1].Name != "worker-1" {
		t.Fatalf("lanes = %+v", lanes)
	}
	ctl, w := lanes[0].Spans(), lanes[1].Spans()
	if len(ctl) != 2 || ctl[0].Cat != CatPhase || ctl[1].Cat != CatTask || ctl[1].Parent != 0 {
		t.Fatalf("control lane = %+v", ctl)
	}
	if len(w) != 1 || w[0].Name != "interval" || w[0].Cat != CatTask || w[0].Wait != 5*time.Microsecond {
		t.Fatalf("worker lane = %+v", w)
	}
	if c := tr.Counters(); len(c) != 1 || c[0].Name != "queue depth" || c[0].Value != 4 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New()
	l := tr.Lane(ControlLane, "control")
	l.Begin("remainder", CatPhase)
	l.Begin("computepoly", CatTask)
	l.Begin("inner", CatTask)
	l.End()
	l.End()
	l.Begin("sort", CatTask)
	l.End()
	l.End()

	spans := l.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantParents := []int{-1, 0, 1, 0}
	wantNames := []string{"remainder", "computepoly", "inner", "sort"}
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Errorf("span %d name = %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Parent != wantParents[i] {
			t.Errorf("span %d parent = %d, want %d", i, s.Parent, wantParents[i])
		}
		if s.Dur < 0 {
			t.Errorf("span %d left open", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesOpenSpan(t *testing.T) {
	tr := New()
	l := tr.Lane(0, "worker-0")
	l.Begin("task", CatTask)
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted an open span")
	}
	l.End()
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate after End: %v", err)
	}
}

func TestValidateOrderingInvariant(t *testing.T) {
	tr := New()
	l := tr.Lane(0, "w")
	// Hand-craft an out-of-order lane: Validate must reject it.
	l.spans = []Span{
		{Name: "b", Cat: CatTask, Start: 10 * time.Millisecond, Dur: time.Millisecond, Parent: -1},
		{Name: "a", Cat: CatTask, Start: 5 * time.Millisecond, Dur: time.Millisecond, Parent: -1},
	}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted out-of-order spans")
	}
}

func TestValidateParentContainment(t *testing.T) {
	tr := New()
	l := tr.Lane(0, "w")
	l.spans = []Span{
		{Name: "p", Cat: CatPhase, Start: 0, Dur: time.Millisecond, Parent: -1},
		{Name: "c", Cat: CatTask, Start: time.Millisecond / 2, Dur: 2 * time.Millisecond, Parent: 0},
	}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted a child escaping its parent")
	}
}

func TestEndWithoutBeginPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("End with no open span did not panic")
		}
	}()
	New().Lane(0, "w").End()
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 {
		t.Error("nil Now != 0")
	}
	l := tr.Lane(0, "w")
	if l != nil {
		t.Fatal("nil tracer returned non-nil lane")
	}
	l.Begin("a", CatTask)
	l.BeginAt("a", CatTask, time.Millisecond)
	l.End()
	tr.CounterSample("q", 1)
	if got := tr.Lanes(); got != nil {
		t.Errorf("nil Lanes = %v", got)
	}
	if got := tr.Counters(); got != nil {
		t.Errorf("nil Counters = %v", got)
	}
	if got := l.Spans(); got != nil {
		t.Errorf("nil Spans = %v", got)
	}
	if s := tr.Summarize(); s.Wall != 0 || len(s.Lanes) != 0 {
		t.Errorf("nil Summarize = %+v", s)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("nil Validate: %v", err)
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Error("nil WriteChrome should error")
	}
}

// TestNilTracerNoAllocs is the acceptance-criterion guard: with tracing
// disabled (nil Tracer / nil Lane), the instrumentation calls on the
// solver hot path must not allocate.
func TestNilTracerNoAllocs(t *testing.T) {
	var tr *Tracer
	lane := tr.Lane(3, "worker-3")
	if n := testing.AllocsPerRun(1000, func() {
		lane.BeginAt("interval", CatTask, 0)
		lane.End()
		tr.CounterSample("queue", 7)
		tr.Observe(sched.Event{Kind: sched.TaskStart, Name: "interval", Worker: 3, Depth: 7})
		tr.Observe(sched.Event{Kind: sched.TaskDone, Name: "interval", Worker: 3})
		_ = tr.Now()
	}); n != 0 {
		t.Errorf("nil-tracer hot path allocates %.1f objects/op, want 0", n)
	}
}

func BenchmarkNilTracerHotPath(b *testing.B) {
	var tr *Tracer
	lane := tr.Lane(0, "worker-0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lane.BeginAt("interval", CatTask, 0)
		lane.End()
	}
}

func BenchmarkEnabledTracerSpan(b *testing.B) {
	tr := New()
	lane := tr.Lane(0, "worker-0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lane.Begin("interval", CatTask)
		lane.End()
	}
}

func TestWriteChromeAndValidate(t *testing.T) {
	tr := New()
	ctl := tr.Lane(ControlLane, "control")
	ctl.Begin("remainder", CatPhase)
	w0 := tr.Lane(0, "worker-0")
	w0.BeginAt("precompute", CatTask, 123*time.Microsecond)
	w0.End()
	ctl.End()
	tr.CounterSample("queue depth", 2)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"thread_name"`, `"worker-0"`, `"control"`, `"ph":"X"`, `"ph":"C"`, `"wait_us"`, `"traceEvents"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %s\noutput: %s", want, out)
		}
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("ValidateChrome: %v", err)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":0}]}`, // no metadata
		`{"traceEvents":[{"name":"t","ph":"M","pid":1,"tid":0}]}`,        // no complete events
	} {
		if err := ValidateChrome([]byte(bad)); err == nil {
			t.Errorf("ValidateChrome accepted %q", bad)
		}
	}
}

func TestCounterSamples(t *testing.T) {
	tr := New()
	tr.CounterSample("queue", 1)
	tr.CounterSample("queue", 3)
	cs := tr.Counters()
	if len(cs) != 2 || cs[0].Value != 1 || cs[1].Value != 3 {
		t.Fatalf("Counters = %+v", cs)
	}
	if cs[1].At < cs[0].At {
		t.Error("counter samples out of order")
	}
}

func TestLaneIdentity(t *testing.T) {
	tr := New()
	a := tr.Lane(2, "worker-2")
	b := tr.Lane(2, "ignored")
	if a != b {
		t.Error("Lane(2) returned distinct lanes")
	}
	lanes := tr.Lanes()
	if len(lanes) != 1 || lanes[0].Name != "worker-2" {
		t.Errorf("Lanes = %+v", lanes)
	}
}
