// Package sched implements the dynamic-scheduling work pool described in
// §3 of the paper: the algorithm's computations are divided into tasks
// kept in a task queue; whenever a processor becomes free it picks the
// first task from the queue, and completing a task usually causes other
// tasks to be added. Workers are goroutines; the worker count plays the
// role of the paper's processor count (1..19 on the Sequent Symmetry).
//
// Tasks must never block waiting for other tasks: dependencies are
// expressed with After/NewGate continuation counters, exactly like the
// per-node status records the paper uses for synchronization (§3.2).
//
// Unlike the paper's dedicated processors, pool workers survive task
// failures: a panicking task is recovered into a first-failure error
// (Err) and cancels the pool, after which the remaining queue is
// drained without executing — Wait always returns, Close never leaks a
// worker, and the caller observes one typed error instead of a crashed
// process or a hung Wait.
package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolCanceled is the error recorded by Cancel(nil).
var ErrPoolCanceled = errors.New("sched: pool canceled")

// A PanicError is the first-failure error recorded when a task panics.
// The worker that ran the task survives; the panic value and stack are
// preserved here for diagnosis.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
	Label string // pool label at recovery (see SetLabel), "" if unset
}

func (e *PanicError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("sched: task panicked (label %s): %v", e.Label, e.Value)
	}
	return fmt.Sprintf("sched: task panicked: %v", e.Value)
}

// A Pool is a fixed set of worker goroutines draining a dynamic FIFO
// task queue. Create one with NewPool and release it with Close.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []queued
	closed   bool
	observer Observer  // nil = uninstrumented (see SetObserver)
	epoch    time.Time // submission-time origin while observed
	label    string    // attribution tag for failures (see SetLabel)
	maxQueue int       // high-water mark of len(queue), under mu

	outstanding atomic.Int64 // queued + running tasks
	idleMu      sync.Mutex
	idleCond    *sync.Cond

	workers  int
	executed atomic.Int64 // total tasks run to completion (diagnostics)
	panics   atomic.Int64 // panics recovered from tasks (incl. ParallelFor bodies)
	retries  atomic.Int64 // SubmitRetry re-executions after a transient failure

	cancelCh   chan struct{} // closed on first Cancel/failure
	cancelOnce sync.Once
	failMu     sync.Mutex
	failErr    error // first failure; nil while healthy

	sim *simState // non-nil in simulation mode (see sim.go)
}

// DefaultTag is the task tag used by the untagged Submit/NewGate/
// ParallelFor entry points; tagged variants let callers label the task
// kind (the paper's Fig. 3.2 taxonomy) for trace timelines.
const DefaultTag = "task"

// queued is one queue entry: the task plus its tag (for trace spans),
// its submission time relative to the pool's epoch (zero when no
// observer is installed), and its simulated ready time (zero outside
// simulation mode).
type queued struct {
	f      func()
	tag    string
	enq    time.Duration
	vready time.Duration
}

// NewPool starts a pool with the given number of workers (≥ 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("sched: invalid worker count %d", workers))
	}
	p := &Pool{workers: workers, cancelCh: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.idleCond = sync.NewCond(&p.idleMu)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Executed returns the number of tasks the pool has run to completion
// (panicked and drained-after-cancel tasks are not counted).
func (p *Pool) Executed() int64 { return p.executed.Load() }

// QueueDepth returns the number of tasks currently waiting in the
// queue (excluding running tasks). It is a point-in-time sample:
// workers may dequeue concurrently.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// PoolStats is a point-in-time snapshot of the pool's execution
// counters.
type PoolStats struct {
	Workers       int   // fixed worker count
	Executed      int64 // tasks run to completion
	Panics        int64 // task panics recovered into pool failures
	Retries       int64 // SubmitRetry re-executions after transient errors
	MaxQueueDepth int   // high-water mark of the queue length
}

// Stats returns a snapshot of the pool's execution counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	maxQ := p.maxQueue
	p.mu.Unlock()
	return PoolStats{
		Workers:       p.workers,
		Executed:      p.executed.Load(),
		Panics:        p.panics.Load(),
		Retries:       p.retries.Load(),
		MaxQueueDepth: maxQ,
	}
}

// SetLabel tags the pool with the identity of the work it is running
// (rootd sets the owning request ID). The label travels on PanicError,
// so a panic surfacing minutes later in a log still names the request
// that triggered it.
func (p *Pool) SetLabel(label string) {
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// getLabel reads the label for panic attribution.
func (p *Pool) getLabel() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.label
}

// SetObserver installs the pool's instrumentation: every executed
// task reaches o as a TaskStart/TaskDone pair on the executing
// worker's index, with TaskPanic in between when the task panicked,
// and SubmitRetry requeues arrive as TaskRetry. Install it before
// submitting work; with no observer (the default) the submit and
// execute paths make no instrumentation calls and no allocations.
func (p *Pool) SetObserver(o Observer) {
	p.mu.Lock()
	p.observer = o
	p.epoch = time.Now()
	p.mu.Unlock()
}

// Cancel records err as the pool's failure (first failure wins; nil
// means ErrPoolCanceled) and cancels the pool: queued tasks are drained
// without executing, and Wait returns once running tasks finish. The
// pool stays structurally usable (Close still works); it only refuses
// to start new work.
func (p *Pool) Cancel(err error) {
	if err == nil {
		err = ErrPoolCanceled
	}
	p.fail(err)
}

// fail records the first failure and cancels the pool. The error is
// published before the cancellation channel closes, so any observer of
// Canceled()/Done() sees a non-nil Err.
func (p *Pool) fail(err error) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.failMu.Unlock()
	p.cancelOnce.Do(func() { close(p.cancelCh) })
}

// Err returns the pool's first failure: a *PanicError from a panicked
// task, the error given to Cancel, or a retry-exhaustion error from
// SubmitRetry. It is nil while the pool is healthy.
func (p *Pool) Err() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// Canceled reports whether the pool has been canceled or has failed.
func (p *Pool) Canceled() bool {
	select {
	case <-p.cancelCh:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the pool is canceled or fails.
func (p *Pool) Done() <-chan struct{} { return p.cancelCh }

func (p *Pool) worker(id int) {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed && len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		depth := len(p.queue)
		simulated := p.sim != nil
		obs := p.observer
		p.mu.Unlock()

		switch {
		case p.Canceled():
			// Drain without executing: the task's completion obligations
			// (gates, dependents) are abandoned, but the outstanding
			// count still reaches zero so Wait returns.
		case simulated:
			proc, start := p.simBegin(task.vready)
			p.runTask(id, task, depth, obs)
			p.simEnd(proc, start)
		default:
			p.runTask(id, task, depth, obs)
		}
		if p.outstanding.Add(-1) == 0 {
			p.idleMu.Lock()
			p.idleCond.Broadcast()
			p.idleMu.Unlock()
		}
	}
}

// runTask executes one task with panic isolation: a panic (from the
// task or from the observer's TaskStart — the fault-injection point)
// becomes the pool's first-failure error and cancels the pool; the
// worker goroutine survives. The observer sees TaskStart before the
// task and TaskDone after it, with TaskPanic in between when the task
// panicked (the deferred calls unwind in that order).
func (p *Pool) runTask(id int, task queued, depth int, obs Observer) {
	if obs != nil {
		defer obs.Observe(Event{Kind: TaskDone, Name: task.tag, Worker: id})
	}
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			if obs != nil {
				obs.Observe(Event{Kind: TaskPanic, Name: task.tag, Worker: id, Value: r})
			}
			p.fail(&PanicError{Value: r, Stack: debug.Stack(), Label: p.getLabel()})
		}
	}()
	if obs != nil {
		obs.Observe(Event{Kind: TaskStart, Name: task.tag, Worker: id,
			Wait: time.Since(p.epoch) - task.enq, Depth: depth})
	}
	task.f()
	p.executed.Add(1)
}

// Submit enqueues a ready-to-run task. It never blocks and may be called
// from inside other tasks. On a canceled pool the task is accepted but
// drained without executing.
func (p *Pool) Submit(task func()) {
	p.SubmitTagged(DefaultTag, task)
}

// SubmitTagged is Submit with a task-kind tag: the tag names the
// task's span on the executing worker's trace timeline. Tags should be
// small constant strings (e.g. the paper's Fig. 3.2 kinds).
func (p *Pool) SubmitTagged(tag string, task func()) {
	p.outstanding.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit on closed pool")
	}
	var enq time.Duration
	if p.observer != nil {
		enq = time.Since(p.epoch)
	}
	p.queue = append(p.queue, queued{f: task, tag: tag, enq: enq, vready: p.simReadyTime()})
	if len(p.queue) > p.maxQueue {
		p.maxQueue = len(p.queue)
	}
	p.cond.Signal()
	p.mu.Unlock()
}

// SubmitRetry enqueues a task that may fail transiently: if task returns
// a non-nil error it is requeued, up to attempts executions in total;
// exhausting the attempts records the last error as the pool's failure
// and cancels the pool. A panic is never retried — it is a first-class
// failure like any other task panic.
func (p *Pool) SubmitRetry(attempts int, task func() error) {
	if attempts < 1 {
		attempts = 1
	}
	var run func(left int)
	run = func(left int) {
		if err := task(); err != nil {
			if left > 1 {
				p.retries.Add(1)
				if obs := p.observer; obs != nil { // read in a task: set before any Submit
					obs.Observe(Event{Kind: TaskRetry, Name: "retry", Worker: ControlLane, Left: left - 1})
				}
				p.SubmitTagged("retry", func() { run(left - 1) })
				return
			}
			p.fail(fmt.Errorf("sched: task failed after %d attempts: %w", attempts, err))
		}
	}
	p.Submit(func() { run(attempts) })
}

// Wait blocks until every submitted task (including tasks submitted by
// running tasks) has completed or been drained after cancellation. It
// must not be called from inside a task. After Wait, check Err: a
// non-nil Err means the run was cut short and dependent results are
// incomplete.
func (p *Pool) Wait() {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	for p.outstanding.Load() != 0 {
		p.idleCond.Wait()
	}
}

// Close shuts the pool down after the queue drains. The pool must not be
// used afterwards.
func (p *Pool) Close() {
	p.Wait()
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ParallelFor runs f(i) for i in [0, n) on the pool, one iteration
// per task (the paper's finest granularity), and blocks until all
// iterations finish or the pool is canceled, in which case it returns
// the pool's error without waiting for the drained iterations (the
// caller must not read results produced by f after a non-nil return:
// a straggler iteration may still be running). It must not be called
// from inside a task.
func (p *Pool) ParallelFor(n int, f func(i int)) error {
	return p.ParallelForTagged(DefaultTag, n, f)
}

// ParallelForTagged is ParallelFor with a task-kind tag for the
// iteration tasks' trace spans.
func (p *Pool) ParallelForTagged(tag string, n int, f func(i int)) error {
	if n <= 0 {
		return nil
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		p.SubmitTagged(tag, func() {
			// Record a panic before the decrement becomes visible, so a
			// ParallelFor woken by the final decrement always observes
			// the failure in Err.
			defer func() {
				if r := recover(); r != nil {
					p.panics.Add(1)
					if obs := p.observer; obs != nil { // read in a task: set before any Submit
						obs.Observe(Event{Kind: TaskPanic, Name: tag, Worker: ControlLane, Value: r})
					}
					p.fail(&PanicError{Value: r, Stack: debug.Stack(), Label: p.getLabel()})
				}
				if remaining.Add(-1) == 0 {
					close(done)
				}
			}()
			f(i)
		})
	}
	select {
	case <-done:
		// All iterations ran; the pool may still have failed concurrently
		// (e.g. another phase's task), but this loop's results are
		// complete. Report the failure anyway: callers must stop.
		return p.Err()
	case <-p.cancelCh:
		return p.Err()
	}
}

// A Gate fires a task once a fixed number of prerequisite completions
// have been signalled. It is the scheduler-side analogue of the paper's
// per-node status data structures: "completion of a certain task at a
// node would cause an update of that node's status [which] enables the
// execution of another task" (§3.2).
type Gate struct {
	remaining atomic.Int32
	pool      *Pool
	tag       string
	task      func()
}

// NewGate creates a gate that submits task to the pool after need
// completions. If need is 0 the task is submitted immediately.
func NewGate(pool *Pool, need int, task func()) *Gate {
	return NewGateTagged(pool, need, DefaultTag, task)
}

// NewGateTagged is NewGate with a task-kind tag for the gated task's
// trace span.
func NewGateTagged(pool *Pool, need int, tag string, task func()) *Gate {
	g := &Gate{pool: pool, tag: tag, task: task}
	g.remaining.Store(int32(need))
	if need == 0 {
		pool.SubmitTagged(tag, task)
	}
	return g
}

// Done signals one completed prerequisite; the last one enqueues the
// gated task.
func (g *Gate) Done() {
	if n := g.remaining.Add(-1); n == 0 {
		g.pool.SubmitTagged(g.tag, g.task)
	} else if n < 0 {
		panic("sched: Gate.Done called too many times")
	}
}
