package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// The /debug/traces store dump (trace.StoreDump) is built by rootd's
// request tracker, which holds each retained trace in its request's
// record. These tests drive that producer and check the dump against
// the schema this package owns.

// retainFailedSolve runs one request through tr that leads a traced
// solve failing with an error, so the tail sampler always retains it.
func retainFailedSolve(tr *telemetry.RequestTracker, id string) string {
	r := tr.Start(telemetry.RequestInfo{ID: id, Tenant: "acme", Kind: "solve"})
	reason := r.Led(telemetry.LedSolve{
		Start: time.Unix(1700000000, 0), Elapsed: 250 * time.Millisecond, BitOps: 10,
		Outcome: telemetry.OutcomeError, Workers: 2, Tracer: trace.New(), Efficiency: 0.5,
	})
	r.Finish(string(telemetry.OutcomeError))
	return reason
}

func TestStoreNilSafe(t *testing.T) {
	var tr *telemetry.RequestTracker
	if reason := retainFailedSolve(tr, "r"); reason != "" {
		t.Errorf("nil tracker retained a trace as %q", reason)
	}
	if tr.Trace(1) != nil {
		t.Error("nil tracker resolved a trace")
	}
	d := tr.Traces()
	if d.Schema != trace.StoreSchema || len(d.Traces) != 0 || d.Seen != 0 || d.Retained != 0 || d.Capacity != 0 {
		t.Errorf("nil tracker traces dump = %+v, want an empty dump", d)
	}
	if err := d.Validate(); err == nil {
		t.Error("nil tracker traces dump validated (schema is set but capacity is 0)")
	}
}

// TestStoreConcurrentAddDump races writers against readers: requests
// whose failed solves the tail sampler retains (and the full ring then
// evicts) against /debug/traces scrapes (Traces, Trace). Every dump
// must validate and round-trip through the JSON validator. Run with
// -race.
func TestStoreConcurrentAddDump(t *testing.T) {
	const capacity, writers, perWriter = 8, 4, 50
	tr := telemetry.NewRequestTracker(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if reason := retainFailedSolve(tr, fmt.Sprintf("w%d-%d", w, i)); reason != trace.ReasonError {
					t.Errorf("failed solve retained as %q, want %q", reason, trace.ReasonError)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			d := tr.Traces()
			if err := d.Validate(); err != nil {
				t.Errorf("mid-write dump invalid: %v", err)
				return
			}
			data, err := json.Marshal(d)
			if err != nil {
				t.Error(err)
				return
			}
			if err := trace.ValidateStoreJSON(data); err != nil {
				t.Errorf("mid-write dump JSON invalid: %v", err)
				return
			}
			tr.Trace(uint64(i))
		}
	}()
	wg.Wait()
	d := tr.Traces()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	const total = writers * perWriter
	if d.Seen != total || d.Retained != total || d.Evicted != total-capacity {
		t.Errorf("seen/retained/evicted = %d/%d/%d, want %d/%d/%d", d.Seen, d.Retained, d.Evicted, total, total, total-capacity)
	}
	if d.ByReason[trace.ReasonError] != total {
		t.Errorf("byReason[error] = %d, want %d", d.ByReason[trace.ReasonError], total)
	}
	if len(d.Traces) != capacity {
		t.Fatalf("ring holds %d traces, want %d", len(d.Traces), capacity)
	}
	// The newest retained trace still resolves; it was the last added.
	if d.Traces[0].Seq != total || tr.Trace(d.Traces[0].Seq) == nil {
		t.Errorf("newest trace seq %d does not resolve (want seq %d)", d.Traces[0].Seq, total)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateStoreJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
