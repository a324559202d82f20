// Chaos suite: the adversarial counterpart of the determinism sweep.
// Where Sweep only perturbs the Go scheduler and demands identical
// output, the chaos harness injects real faults — task panics, mid-run
// cancellations, starvation budgets, stalls — from deterministic
// seed-derived plans (internal/faultinject) and demands the resilience
// contract instead: every run terminates promptly with either
// bit-exact roots or a typed resilience error. Never a hang, never a
// silently wrong root.

package stress

import (
	"context"
	"fmt"
	"time"

	"realroots/internal/core"
	"realroots/internal/dyadic"
	"realroots/internal/faultinject"
	"realroots/internal/poly"
)

// ChaosWorkers is the worker sweep the chaos suite exercises. It stays
// below DefaultWorkers' top end because every (seed, P) pair is a full
// solver run and the suite runs many seeds under -race.
var ChaosWorkers = []int{1, 2, 4, 8}

// HangTimeout bounds one chaos run. The instances are small (a run
// completes in milliseconds), so a run still in flight after this long
// is a liveness bug — the exact failure mode the suite exists to catch.
const HangTimeout = 30 * time.Second

// TypedFailure reports whether err is an acceptable way for a
// fault-injected run to fail: one of the typed resilience outcomes
// (cancellation, deadline, budget, isolated panic). A nil error is not
// a failure, and any other error is an unacceptable one.
func TypedFailure(err error) bool {
	return err != nil && core.IsResilience(err)
}

// ChaosRun solves p once under the given fault plan, guarded against
// hangs: if the run is still going after HangTimeout it returns a
// non-resilience error (the run's goroutine is abandoned — the caller
// is a failing test by then).
func ChaosRun(p *poly.Poly, mu uint, workers int, plan faultinject.Plan) (*core.Result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := core.Options{
		Mu:        mu,
		Workers:   workers,
		Ctx:       ctx,
		MaxBitOps: plan.MaxBitOps,
		Observer:  plan.Hook(cancel),
	}
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := core.FindRoots(p, opts)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(HangTimeout):
		return nil, fmt.Errorf("stress: chaos run hung for %v (P=%d, %v)", HangTimeout, workers, plan)
	}
}

// ChaosSweepAndVerify derives one fault plan from seed, replays it at
// every worker count in ChaosWorkers, and asserts the resilience
// contract against a clean sequential reference solve: each run either
// matches the reference bit-for-bit or fails with a typed resilience
// error. Fault-free plans must succeed outright. The paper's
// determinism guarantee (§5.1: identical arithmetic at every P) is
// what makes the bit-exact comparison sound even under stalls.
func ChaosSweepAndVerify(p *poly.Poly, mu uint, seed int64) error {
	want, err := core.FindRoots(p, core.Options{Mu: mu})
	if err != nil {
		return fmt.Errorf("stress: reference solve: %w", err)
	}
	plan := faultinject.New(seed)
	for _, w := range ChaosWorkers {
		res, err := ChaosRun(p, mu, w, plan)
		if err != nil {
			if !TypedFailure(err) {
				return fmt.Errorf("stress: P=%d %v: untyped failure: %w", w, plan, err)
			}
			if plan.FaultFree() {
				return fmt.Errorf("stress: P=%d %v: fault-free plan failed: %w", w, plan, err)
			}
			if res == nil {
				return fmt.Errorf("stress: P=%d %v: resilience error without partial stats", w, plan)
			}
			continue
		}
		// Success path: the roots must be bit-exact, faults or not —
		// a fault that didn't land (e.g. PanicAt beyond the task
		// count, or P=1's poolless path never calling the hook) must
		// leave no trace on the output.
		if err := sameRoots(want.Roots, res.Roots); err != nil {
			return fmt.Errorf("stress: P=%d %v: %w", w, plan, err)
		}
	}
	return nil
}

// sameRoots compares two root slices bit-for-bit.
func sameRoots(want, got []dyadic.Dyadic) error {
	if len(got) != len(want) {
		return fmt.Errorf("found %d roots, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("root %d differs: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
