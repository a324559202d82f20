package core

import (
	"sync/atomic"
	"testing"
	"time"

	"realroots/internal/faultinject"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// startCounter forwards the stream to a subscriber, counting the pool
// task starts it delivers.
type startCounter struct {
	sched.Observer
	starts atomic.Int64
}

func (c *startCounter) Observe(e sched.Event) {
	if e.Kind == sched.TaskStart && e.Worker != sched.ControlLane {
		c.starts.Add(1)
	}
	c.Observer.Observe(e)
}

// TestStreamSubscribersSeeEveryTask attaches all four subscribers — the
// tracer, the telemetry hub, a request tracker and a delay-only fault
// plan — to one P=4 solve: each must see every scheduler task start
// once, and all must agree with Stats.Tasks.
func TestStreamSubscribersSeeEveryTask(t *testing.T) {
	tr := trace.New()
	tel := telemetry.New(telemetry.Config{FlightCapacity: 1 << 14})
	req := tel.Requests().Start(telemetry.RequestInfo{ID: "stream-1", Kind: "solve"})
	tracker := &startCounter{Observer: req}
	plan := faultinject.Plan{PanicAt: -1, CancelAt: -1, DelayEvery: 3, Delay: time.Microsecond}
	faults := &startCounter{Observer: plan.Hook(nil)}

	res, err := FindRoots(testPoly(14), Options{Mu: 24, Workers: 4, Tracer: tr, Telemetry: tel,
		Observer: sched.Observers{tracker, faults}})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stats.Tasks
	if want == 0 {
		t.Fatal("parallel solve reported no tasks")
	}

	var traced int64
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			if l.ID != trace.ControlLane && s.Cat == trace.CatTask {
				traced++
			}
		}
	}
	var flight int64
	for _, r := range tel.Flight().Dump().Records {
		if r.Kind == telemetry.KindBegin && r.Lane != telemetry.ControlLane {
			flight++
		}
	}
	for name, got := range map[string]int64{
		"tracer":          traced,
		"telemetry":       flight,
		"request tracker": tracker.starts.Load(),
		"fault plan":      faults.starts.Load(),
	} {
		if got != want {
			t.Errorf("%s saw %d task starts, want Stats.Tasks = %d", name, got, want)
		}
	}

	// The tracker followed the phases on the same stream.
	if d := tel.Requests().Dump(); len(d.Active) != 1 || d.Active[0].Phase != "solve" {
		t.Errorf("request tracker = %+v, want one active request in phase solve", d.Active)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSequentialTasksStayOnControlLane pins the subscribers'
// split of a sequential solve's control-lane tasks: the tracer records
// them, telemetry and fault plans ignore them, and phases reach all.
func TestStreamSequentialTasksStayOnControlLane(t *testing.T) {
	tr := trace.New()
	tel := telemetry.New(telemetry.Config{})
	var phases []string
	var planned atomic.Int64
	plan := faultinject.Plan{PanicAt: 0, CancelAt: -1} // would fail any pool task
	hook := plan.Hook(nil)
	obs := sched.ObserverFunc(func(e sched.Event) {
		if e.Kind == sched.PhaseBegin {
			phases = append(phases, e.Name)
		}
		if e.Kind == sched.TaskStart {
			planned.Add(1)
		}
		hook.Observe(e)
	})
	res, err := FindRoots(testPoly(8), Options{Mu: 16, Tracer: tr, Telemetry: tel, Observer: obs})
	if err != nil {
		t.Fatalf("sequential solve under a pool-only fault plan: %v", err)
	}
	if len(res.Roots) != 8 || planned.Load() == 0 {
		t.Fatalf("roots=%d control-lane task starts=%d", len(res.Roots), planned.Load())
	}
	if len(phases) != 2 || phases[0] != "remainder" || phases[1] != "solve" {
		t.Fatalf("phases = %v, want [remainder solve]", phases)
	}
	ctlTasks := 0
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			if l.ID == trace.ControlLane && s.Cat == trace.CatTask {
				ctlTasks++
			}
		}
	}
	if int64(ctlTasks) != planned.Load() {
		t.Errorf("tracer recorded %d control-lane tasks, stream carried %d", ctlTasks, planned.Load())
	}
	for _, r := range tel.Flight().Dump().Records {
		if r.Cat == trace.CatTask {
			t.Fatalf("telemetry recorded control-lane task %+v", r)
		}
	}
}
