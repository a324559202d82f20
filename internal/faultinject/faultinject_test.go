package faultinject

import (
	"context"
	"strings"
	"testing"
	"time"

	"realroots/internal/sched"
)

func TestNewIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if New(seed) != New(seed) {
			t.Fatalf("seed %d: New is not deterministic", seed)
		}
	}
}

func TestNewCoversEveryFaultKind(t *testing.T) {
	var panics, cancels, budgets, controls, delays int
	for seed := int64(0); seed < 200; seed++ {
		pl := New(seed)
		switch {
		case pl.PanicAt >= 0:
			panics++
		case pl.CancelAt >= 0:
			cancels++
		case pl.MaxBitOps > 0:
			budgets++
		default:
			controls++
		}
		if pl.DelayEvery > 0 {
			delays++
			if pl.Delay <= 0 {
				t.Fatalf("seed %d: DelayEvery set with zero Delay", seed)
			}
		}
	}
	for name, n := range map[string]int{
		"panic": panics, "cancel": cancels, "budget": budgets,
		"control": controls, "delay": delays,
	} {
		if n == 0 {
			t.Errorf("200 seeds produced no %s plans", name)
		}
	}
}

// start delivers one pool-task start to a plan's subscriber.
func start(h sched.Observer) { h.Observe(sched.Event{Kind: sched.TaskStart}) }

func TestHookPanicsWithIdentifiableValue(t *testing.T) {
	pl := Plan{Seed: 7, PanicAt: 3, CancelAt: -1}
	hook := pl.Hook(nil)
	for i := 0; i < 3; i++ {
		start(hook) // tasks 0..2 must not panic
	}
	// Control-lane tasks (sequential solves) take no sequence number.
	hook.Observe(sched.Event{Kind: sched.TaskStart, Worker: sched.ControlLane})
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok {
			t.Fatalf("panicked with %T %v, want Panic", r, r)
		}
		if p.Seed != 7 || p.Seq != 3 {
			t.Fatalf("Panic = %+v", p)
		}
	}()
	start(hook)
	t.Fatal("task PanicAt did not panic")
}

func TestHookInvokesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pl := Plan{PanicAt: -1, CancelAt: 5}
	hook := pl.Hook(cancel)
	for i := 0; i < 5; i++ {
		start(hook)
		hook.Observe(sched.Event{Kind: sched.TaskDone}) // only starts count
	}
	if ctx.Err() != nil {
		t.Fatal("canceled before CancelAt")
	}
	start(hook)
	if ctx.Err() == nil {
		t.Fatal("task CancelAt did not cancel")
	}
}

func TestHookNilWhenNoTaskFaults(t *testing.T) {
	if (Plan{PanicAt: -1, CancelAt: -1, MaxBitOps: 900}).Hook(nil) != nil {
		t.Fatal("budget-only plan returned a non-nil hook")
	}
	if (Plan{PanicAt: -1, CancelAt: -1, DelayEvery: 2, Delay: time.Microsecond}).Hook(nil) == nil {
		t.Fatal("delay plan returned a nil hook")
	}
}

func TestFaultFree(t *testing.T) {
	if !(Plan{PanicAt: -1, CancelAt: -1, DelayEvery: 3, Delay: time.Microsecond}).FaultFree() {
		t.Fatal("delay-only plan should be fault-free")
	}
	for _, pl := range []Plan{
		{PanicAt: 0, CancelAt: -1},
		{PanicAt: -1, CancelAt: 0},
		{PanicAt: -1, CancelAt: -1, MaxBitOps: 1},
	} {
		if pl.FaultFree() {
			t.Fatalf("%v should not be fault-free", pl)
		}
	}
}

func TestStringMentionsEveryFault(t *testing.T) {
	pl := Plan{Seed: 9, PanicAt: 1, CancelAt: 2, MaxBitOps: 3, DelayEvery: 4, Delay: time.Microsecond}
	s := pl.String()
	for _, want := range []string{"seed=9", "panic@1", "cancel@2", "budget=3", "/4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}
