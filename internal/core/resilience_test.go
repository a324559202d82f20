package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"realroots/internal/faultinject"
	"realroots/internal/metrics"
	"realroots/internal/poly"
	"realroots/internal/sched"
)

// testPoly returns a modest all-real-roots polynomial: the product of
// (x - k) for k in [1, n] (a Wilkinson-style instance).
func testPoly(n int) *poly.Poly {
	p := poly.FromInt64s(1)
	for k := 1; k <= n; k++ {
		p = p.Mul(poly.FromInt64s(int64(-k), 1))
	}
	return p
}

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string // "" means valid
	}{
		{"zero value", Options{}, ""},
		{"sequential", Options{Mu: 32}, ""},
		{"parallel", Options{Mu: 32, Workers: 8}, ""},
		{"simulated", Options{Mu: 32, SimulateWorkers: 16}, ""},
		{"max mu", Options{Mu: MaxMu}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"very negative workers", Options{Workers: -100}, "Workers"},
		{"negative simulated", Options{SimulateWorkers: -2}, "SimulateWorkers"},
		{"workers and simulated", Options{Workers: 2, SimulateWorkers: 2}, "SimulateWorkers"},
		{"one worker and simulated", Options{Workers: 1, SimulateWorkers: 4}, "SimulateWorkers"},
		{"mu out of range", Options{Mu: MaxMu + 1}, "Mu"},
		{"negative budget", Options{MaxBitOps: -5}, "MaxBitOps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate accepted invalid options")
			}
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("error %v does not match ErrInvalidOptions", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("Field = %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

func TestFindRootsRejectsInvalidOptionsEarly(t *testing.T) {
	// Before Validate existed, a negative worker count reached
	// sched.NewPool and panicked; now it is a typed error.
	p := testPoly(4)
	res, err := FindRoots(p, Options{Mu: 8, Workers: -3})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	if res != nil {
		t.Fatal("invalid options returned a result")
	}
}

// checkPartial asserts the (res, err) pair of an interrupted run: a
// typed resilience error plus a Roots-free Result carrying stats.
func checkPartial(t *testing.T, res *Result, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if !IsResilience(err) {
		t.Fatalf("IsResilience(%v) = false", err)
	}
	if res == nil {
		t.Fatal("interrupted run returned a nil Result (want partial stats)")
	}
	if len(res.Roots) != 0 {
		t.Fatalf("interrupted run returned %d roots", len(res.Roots))
	}
}

func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testPoly(10)
	for _, workers := range []int{0, 4} {
		res, err := FindRoots(p, Options{Mu: 16, Workers: workers, Ctx: ctx})
		checkPartial(t, res, err, ErrCanceled)
	}
}

// boundaries maps each phase boundary to the stream event at which the
// boundary tests cancel: the remainder phase beginning, the remainder
// phase ending (the tree stage is next), and the first interval task.
var boundaries = map[string]sched.Event{
	"precompute": {Kind: sched.PhaseBegin, Name: "remainder"},
	"tree":       {Kind: sched.PhaseEnd, Name: "remainder"},
	"interval":   {Kind: sched.TaskStart, Name: "interval"},
}

// canceler is a stream subscriber that cancels the run at the first
// event matching at, and counts the phases and tasks begun after it.
type canceler struct {
	at     sched.Event
	cancel context.CancelFunc
	fired  atomic.Bool
	after  atomic.Int64
}

func (c *canceler) Observe(e sched.Event) {
	begins := e.Kind == sched.PhaseBegin || e.Kind == sched.TaskStart
	switch {
	case c.fired.Load():
		if begins {
			c.after.Add(1)
		}
	case e.Kind == c.at.Kind && e.Name == c.at.Name && c.fired.CompareAndSwap(false, true):
		c.cancel()
	}
}

// cancelAtBoundary returns options canceling the run at the named
// boundary, and the subscriber doing it.
func cancelAtBoundary(boundary string, opts Options) (Options, *canceler, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &canceler{at: boundaries[boundary], cancel: cancel}
	opts.Ctx, opts.Observer = ctx, c
	return opts, c, cancel
}

func TestCancelAtPhaseBoundariesSequential(t *testing.T) {
	p := testPoly(12)
	for _, phase := range []string{"precompute", "tree", "interval"} {
		t.Run(phase, func(t *testing.T) {
			opts, c, cancel := cancelAtBoundary(phase, Options{Mu: 16})
			defer cancel()
			res, err := FindRoots(p, opts)
			checkPartial(t, res, err, ErrCanceled)
			if !c.fired.Load() {
				t.Fatalf("run never reached the %s boundary", phase)
			}
			if n := c.after.Load(); n != 0 {
				t.Fatalf("%d phases or tasks began after the %s boundary, want the run to stop there", n, phase)
			}
		})
	}
}

func TestCancelAtPhaseBoundariesParallel(t *testing.T) {
	p := testPoly(12)
	// The precompute and tree boundaries abort deterministically via
	// the stop() polls on the submitting goroutine.
	for _, phase := range []string{"precompute", "tree"} {
		t.Run(phase, func(t *testing.T) {
			opts, _, cancel := cancelAtBoundary(phase, Options{Mu: 16, Workers: 4})
			defer cancel()
			res, err := FindRoots(p, opts)
			checkPartial(t, res, err, ErrCanceled)
		})
	}
	// The interval boundary is signalled from inside a pool task, so
	// cancellation races run completion: a small instance can finish
	// before the watchdog drains the queue. Either outcome is legal —
	// what is being tested is that the error, when it occurs, is typed
	// and that the run never hangs.
	t.Run("interval", func(t *testing.T) {
		opts, _, cancel := cancelAtBoundary("interval", Options{Mu: 32, Workers: 4})
		defer cancel()
		res, err := FindRoots(testPoly(16), opts)
		if err == nil {
			if len(res.Roots) != 16 {
				t.Fatalf("completed run returned %d roots", len(res.Roots))
			}
			return
		}
		checkPartial(t, res, err, ErrCanceled)
	})
}

func TestTimeoutReturnsErrDeadline(t *testing.T) {
	p := testPoly(10)
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		time.Sleep(time.Millisecond) // ensure the deadline has passed
		res, err := FindRoots(p, Options{Mu: 16, Workers: workers, Ctx: ctx})
		cancel()
		checkPartial(t, res, err, ErrDeadline)
	}
}

func TestBudgetExceeded(t *testing.T) {
	p := testPoly(14)
	for _, workers := range []int{0, 4} {
		// A budget far below the instance's real cost must trip; note
		// that no Counters are supplied — core meters internally.
		res, err := FindRoots(p, Options{Mu: 32, Workers: workers, MaxBitOps: 2000})
		checkPartial(t, res, err, ErrBudgetExceeded)
	}
}

func TestBudgetGenerousSucceeds(t *testing.T) {
	p := testPoly(8)
	var c metrics.Counters
	res, err := FindRoots(p, Options{Mu: 16, MaxBitOps: 1 << 40, Counters: &c})
	if err != nil {
		t.Fatalf("FindRoots = %v", err)
	}
	if len(res.Roots) != 8 {
		t.Fatalf("%d roots", len(res.Roots))
	}
	if c.BitOps() == 0 {
		t.Fatal("budget metering recorded no bit ops")
	}
	if c.BitOps() > 1<<40 {
		t.Fatal("run exceeded the budget without tripping")
	}
}

// TestTaskHookPanicIsIsolated: a subscriber panicking on a pool task's
// TaskStart (the fault-injection point) fails the run like a task panic.
func TestTaskHookPanicIsIsolated(t *testing.T) {
	p := testPoly(10)
	hook := faultinject.Plan{PanicAt: 5, CancelAt: -1}.Hook(nil)
	res, err := FindRoots(p, Options{Mu: 16, Workers: 4, Observer: hook})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	checkPartial(t, res, err, err)
}

func TestPartialStatsOnMidRunCancel(t *testing.T) {
	// Cancel at the tree boundary: the precompute stage completed, so
	// the partial stats must show it.
	opts, _, cancel := cancelAtBoundary("tree", Options{Mu: 16})
	defer cancel()
	res, err := FindRoots(testPoly(12), opts)
	checkPartial(t, res, err, ErrCanceled)
	if res.Stats.Precompute <= 0 {
		t.Fatalf("partial Stats.Precompute = %v, want > 0", res.Stats.Precompute)
	}
	if res.Degree != 12 {
		t.Fatalf("partial Degree = %d", res.Degree)
	}
}

// checkNoGoroutineLeak retries because pool workers and watchdogs shut
// down asynchronously after FindRoots returns.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNoGoroutineLeakAcrossFailureModes(t *testing.T) {
	p := testPoly(10)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Canceled mid-tree.
		opts, _, cancel := cancelAtBoundary("tree", Options{Mu: 16, Workers: 4})
		_, _ = FindRoots(p, opts)
		cancel()
		// Budget-tripped.
		_, _ = FindRoots(p, Options{Mu: 16, Workers: 2, MaxBitOps: 1000})
		// Task panic.
		_, _ = FindRoots(p, Options{Mu: 16, Workers: 2, Observer: faultinject.Plan{PanicAt: 2, CancelAt: -1}.Hook(nil)})
		// Healthy run, for contrast.
		if _, err := FindRoots(p, Options{Mu: 16, Workers: 2}); err != nil {
			t.Fatalf("healthy run failed: %v", err)
		}
	}
	checkNoGoroutineLeak(t, before)
}
