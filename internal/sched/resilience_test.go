package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// waitOrFatal fails the test if p.Wait does not return within the
// deadline — the watchdog that turns the historical panic-deadlock
// (worker goroutine dies, outstanding never decrements, Wait blocks
// forever) into a test failure instead of a hung test binary.
func waitOrFatal(t *testing.T, p *Pool, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Wait did not return: panic-deadlock regression")
	}
}

func TestPanicDoesNotDeadlockWait(t *testing.T) {
	// Regression: before panic isolation, a panicking task killed its
	// worker goroutine without decrementing outstanding, so Wait hung
	// forever (and the unrecovered panic could crash the process).
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Submit(func() { panic("boom") })
	waitOrFatal(t, p, 5*time.Second)

	var pe *PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PanicError", err)
	} else if fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	} else if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

func TestWorkersSurviveTaskPanic(t *testing.T) {
	// All workers panic once; the pool must still drain later
	// submissions (drained, not run, since the pool is canceled — the
	// point is that Wait and Close still function).
	p := NewPool(4)
	for i := 0; i < 4; i++ {
		p.Submit(func() { panic(i) })
	}
	waitOrFatal(t, p, 5*time.Second)
	for i := 0; i < 100; i++ {
		p.Submit(func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	p.Close() // must not hang or panic
}

func TestCancelDrainsQueue(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var ran atomic.Int64
	block := make(chan struct{})
	p.Submit(func() { <-block })
	for i := 0; i < 50; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	cause := errors.New("stop now")
	p.Cancel(cause)
	close(block)
	waitOrFatal(t, p, 5*time.Second)
	if ran.Load() != 0 {
		t.Fatalf("%d queued tasks ran after Cancel", ran.Load())
	}
	if err := p.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want %v", err, cause)
	}
	if !p.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	select {
	case <-p.Done():
	default:
		t.Fatal("Done() not closed after Cancel")
	}
}

func TestCancelNilUsesSentinel(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.Cancel(nil)
	if err := p.Err(); !errors.Is(err, ErrPoolCanceled) {
		t.Fatalf("Err = %v, want ErrPoolCanceled", err)
	}
}

func TestFirstFailureWins(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	first := errors.New("first")
	p.Cancel(first)
	p.Cancel(errors.New("second"))
	p.Submit(func() { panic("third") })
	waitOrFatal(t, p, 5*time.Second)
	if err := p.Err(); !errors.Is(err, first) {
		t.Fatalf("Err = %v, want first failure", err)
	}
}

func TestSubmitRetryEventualSuccess(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var calls atomic.Int64
	p.SubmitRetry(5, func() error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	waitOrFatal(t, p, 5*time.Second)
	if calls.Load() != 3 {
		t.Fatalf("task ran %d times, want 3", calls.Load())
	}
	if err := p.Err(); err != nil {
		t.Fatalf("Err = %v after eventual success", err)
	}
}

func TestSubmitRetryExhaustionFailsPool(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var calls atomic.Int64
	cause := errors.New("still broken")
	p.SubmitRetry(3, func() error { calls.Add(1); return cause })
	waitOrFatal(t, p, 5*time.Second)
	if calls.Load() != 3 {
		t.Fatalf("task ran %d times, want 3", calls.Load())
	}
	if err := p.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want wrapped %v", err, cause)
	}
}

func TestSubmitRetryPanicIsNotRetried(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var calls atomic.Int64
	p.SubmitRetry(10, func() error { calls.Add(1); panic("hard failure") })
	waitOrFatal(t, p, 5*time.Second)
	if calls.Load() != 1 {
		t.Fatalf("panicking task retried %d times", calls.Load())
	}
	var pe *PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PanicError", err)
	}
}

// onTaskStart subscribes f to the pool's TaskStart events — the
// fault-injection point — numbering them in execution order.
func onTaskStart(p *Pool, f func(seq int64)) {
	var seq atomic.Int64
	p.SetObserver(ObserverFunc(func(e Event) {
		if e.Kind == TaskStart {
			f(seq.Add(1) - 1)
		}
	}))
}

func TestTaskHookSeesEveryTask(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var hooked atomic.Int64
	var maxSeq atomic.Int64
	onTaskStart(p, func(seq int64) {
		hooked.Add(1)
		for {
			m := maxSeq.Load()
			if seq <= m || maxSeq.CompareAndSwap(m, seq) {
				break
			}
		}
	})
	const n = 200
	for i := 0; i < n; i++ {
		p.Submit(func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	if hooked.Load() != n {
		t.Fatalf("hook ran %d times, want %d", hooked.Load(), n)
	}
	if maxSeq.Load() != n-1 {
		t.Fatalf("max sequence %d, want %d", maxSeq.Load(), n-1)
	}
}

func TestTaskHookPanicBecomesPoolError(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	onTaskStart(p, func(seq int64) {
		if seq == 3 {
			panic("injected")
		}
	})
	for i := 0; i < 20; i++ {
		p.Submit(func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	var pe *PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PanicError from hook", err)
	}
	if got := p.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
}

func TestParallelForReturnsOnCancel(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	cause := errors.New("abort")
	start := make(chan struct{})
	var once atomic.Bool
	err := p.ParallelFor(1000, func(i int) {
		if once.CompareAndSwap(false, true) {
			close(start)
			p.Cancel(cause)
		}
	})
	<-start
	if !errors.Is(err, cause) {
		t.Fatalf("ParallelFor = %v, want %v", err, cause)
	}
	waitOrFatal(t, p, 5*time.Second)
}

func TestParallelForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	err := p.ParallelFor(100, func(i int) {
		if i == 41 {
			panic("iteration failed")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ParallelFor = %v, want *PanicError", err)
	}
	waitOrFatal(t, p, 5*time.Second)
}

func TestParallelForHealthyReturnsNil(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	out := make([]int, 500)
	if err := p.ParallelFor(len(out), func(i int) { out[i] = i }); err != nil {
		t.Fatalf("ParallelFor = %v", err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestExecutedExcludesDrainedAndPanicked(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	p.Submit(func() { <-block })  // completes: counted
	p.Submit(func() { panic(1) }) // panics: not counted
	p.Submit(func() {})           // drained after the panic: not counted
	close(block)
	waitOrFatal(t, p, 5*time.Second)
	if got := p.Executed(); got != 1 {
		t.Fatalf("Executed = %d, want 1", got)
	}
}
