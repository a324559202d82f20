package telemetry

import (
	"sync"
	"testing"
	"time"

	"realroots/internal/trace"
)

func TestTailSamplerPriorities(t *testing.T) {
	s := newTailSampler()
	cases := []struct {
		name string
		info traceInfo
		want string
	}{
		{"forced beats error", traceInfo{forced: true, outcome: OutcomeError}, trace.ReasonForced},
		{"error", traceInfo{outcome: OutcomeBudget}, trace.ReasonError},
		{"panic is an error", traceInfo{outcome: OutcomePanic}, trace.ReasonError},
		{"low efficiency", traceInfo{outcome: OutcomeOK, workers: 4, efficiency: 0.1}, trace.ReasonLowEfficiency},
		{"sequential never low-eff", traceInfo{outcome: OutcomeOK, workers: 1, efficiency: 0}, ""},
		{"healthy parallel dropped", traceInfo{outcome: OutcomeOK, workers: 4, efficiency: 0.9}, ""},
	}
	for _, tc := range cases {
		if got := s.consider(tc.info); got != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTailSamplerSlowAfterWarmup(t *testing.T) {
	s := newTailSampler()

	// During warmup nothing classifies slow, even outliers.
	if got := s.consider(traceInfo{outcome: OutcomeOK, seconds: 100}); got != "" {
		t.Fatalf("first request retained as %q before any threshold exists", got)
	}
	if _, ok := s.threshold(); ok {
		t.Fatal("threshold trusted with one observation")
	}

	// Fill past warmup with ~1ms solves.
	for i := 0; i < tailWarmup+8; i++ {
		s.consider(traceInfo{outcome: OutcomeOK, seconds: 0.001})
	}
	threshold, ok := s.threshold()
	if !ok {
		t.Fatal("threshold still untrusted past warmup")
	}
	if threshold <= 0 || threshold > 0.1 {
		t.Fatalf("threshold %v seconds, want small positive", threshold)
	}
	if got := s.consider(traceInfo{outcome: OutcomeOK, seconds: 5}); got != trace.ReasonSlow {
		t.Errorf("5s outlier against ~1ms window classified %q, want slow", got)
	}
	if got := s.consider(traceInfo{outcome: OutcomeOK, seconds: 0.0001}); got != "" {
		t.Errorf("fast solve retained as %q", got)
	}
}

func TestTailSamplerWindowRotation(t *testing.T) {
	s := newTailSampler()
	// Fill a full window of slow solves, then a regime change to fast
	// ones: after the second rotation the threshold must reflect the
	// fast window, not the stale slow one.
	for i := 0; i < tailWindow; i++ {
		s.consider(traceInfo{outcome: OutcomeOK, seconds: 1})
	}
	th1, ok := s.threshold()
	if !ok || th1 < 0.5 {
		t.Fatalf("threshold after slow window = %v (ok=%v), want ~1s", th1, ok)
	}
	for i := 0; i < tailWindow; i++ {
		s.consider(traceInfo{outcome: OutcomeOK, seconds: 0.001})
	}
	th2, ok := s.threshold()
	if !ok || th2 >= th1 {
		t.Fatalf("threshold did not follow the regime change: %v -> %v", th1, th2)
	}
}

func TestTailSamplerNilSafe(t *testing.T) {
	var s *tailSampler
	if got := s.consider(traceInfo{forced: true}); got != "" {
		t.Errorf("nil sampler retained %q", got)
	}
	if th, ok := s.threshold(); th != 0 || ok {
		t.Error("nil sampler reported a threshold")
	}
}

// TestTailSamplerConcurrent races the sampler (the admit path, rotating
// windows under load) against threshold reads and the request tracker's
// retain/evict cycle — the full tail-sampling pipeline under -race.
func TestTailSamplerConcurrent(t *testing.T) {
	tr := NewRequestTracker(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*tailWindow; i++ {
				outcome := OutcomeOK
				if i%97 == 0 {
					outcome = OutcomeError
				}
				r := tr.Start(RequestInfo{ID: "r"})
				r.Led(LedSolve{Elapsed: time.Duration(i%100) * time.Millisecond, Outcome: outcome, Tracer: trace.New()})
				r.Finish(string(outcome))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr.tail.threshold()
			if err := tr.Traces().Validate(); err != nil {
				t.Errorf("mid-run traces dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := tr.Traces()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ByReason[trace.ReasonError] == 0 {
		t.Error("no error traces retained across 8 windows of injected errors")
	}
}
