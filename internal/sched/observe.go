package sched

import "time"

// An EventKind names one record type of the instrumentation stream.
type EventKind uint8

const (
	PhaseBegin EventKind = iota // a pipeline phase opens (raised by the solver, not the pool)
	PhaseEnd                    // the phase of the same name closes
	TaskStart                   // a task is about to run
	TaskDone                    // the task returned, also after an isolated panic
	TaskPanic                   // a task panic was recovered
	TaskRetry                   // SubmitRetry requeued a failed attempt
)

// ControlLane is the Worker of events not raised on a pool worker:
// phases, retries, panics recovered inside ParallelFor bodies, and the
// tasks a sequential solve runs on its own goroutine.
const ControlLane = -1

// An Event is one record of a solve's instrumentation stream.
type Event struct {
	Kind EventKind
	Name string // phase name, or task tag (the paper's Fig. 3.2 kinds, …)
	// Worker is the executing worker's index, or ControlLane.
	Worker int
	// Wait and Depth describe a pool task's dequeue: its queue latency
	// and the queue length left behind.
	Wait  time.Duration
	Depth int
	Left  int // attempts remaining after a TaskRetry
	Value any // the recovered value of a TaskPanic
}

// An Observer subscribes to the instrumentation stream of a pool and of
// the solver driving it (trace.Tracer, telemetry.Run, the request
// tracker, fault plans). Observe is called concurrently from every
// worker, on the task's critical path. A panic from a pool worker's
// TaskStart is isolated like a task panic.
type Observer interface {
	Observe(Event)
}

// An ObserverFunc adapts a plain function to an Observer.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// Observers fans one stream out to its subscribers in order; those that
// may panic on TaskStart (fault plans) belong last, so the others have
// opened the task and see its TaskDone. A nil Observers delivers
// nothing and allocates nothing.
type Observers []Observer

// Observe delivers e to every subscriber in order.
func (os Observers) Observe(e Event) {
	for _, o := range os {
		o.Observe(e)
	}
}
