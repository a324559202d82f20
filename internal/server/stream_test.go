package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"realroots/internal/sched"
	"realroots/internal/telemetry"
)

// TestStreamTrackerAndFaultsShareOneSolve runs one parallel solve whose
// fault subscriber stalls the first pool task: while it is held, the
// request tracker (a subscriber of the same stream) must show the
// request in the remainder phase; afterwards the fault subscriber and
// the flight recorder must have seen the same task starts.
func TestStreamTrackerAndFaultsShareOneSolve(t *testing.T) {
	gate, held := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var starts atomic.Int64
	s, hs := newTestServer(t, Config{
		MaxConcurrent: 1,
		Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) sched.Observer {
			return sched.ObserverFunc(func(e sched.Event) {
				if e.Kind != sched.TaskStart || e.Worker == sched.ControlLane {
					return
				}
				starts.Add(1)
				once.Do(func() {
					close(held)
					select {
					case <-gate:
					case <-ctx.Done():
					}
				})
			})
		},
	})

	status := make(chan int, 1)
	go func() {
		st, _, _ := postSolve(t, hs.URL, `{"poly":{"coeffs":["-6","11","-6","1"]},"workers":2}`)
		status <- st
	}()
	<-held
	d := s.Telemetry().Requests().Dump()
	close(gate)
	if len(d.Active) != 1 || d.Active[0].Phase != "remainder" {
		t.Errorf("active requests during the first task = %+v, want one in phase remainder", d.Active)
	}
	if st := <-status; st != 200 {
		t.Fatalf("status = %d", st)
	}

	var flight int64
	for _, r := range s.Telemetry().Flight().Dump().Records {
		if r.Kind == telemetry.KindBegin && r.Lane != telemetry.ControlLane {
			flight++
		}
	}
	if n := starts.Load(); n == 0 || flight != n {
		t.Fatalf("fault subscriber saw %d task starts, flight recorder %d", n, flight)
	}
}
