package trace

import (
	"encoding/json"
	"fmt"
	"time"
)

// StoreSchema versions the /debug/traces JSON dump, the wire schema of
// the traces rootd's request tracker retains (telemetry.RequestTracker
// builds the dump). Bump on incompatible changes to StoreDump or
// RetainedTrace.
const StoreSchema = "realroots/trace-store/v1"

// Retention reasons recorded on a RetainedTrace. The tail sampler
// decides which applies.
const (
	ReasonForced        = "forced"         // X-Debug-Trace header
	ReasonError         = "error"          // error / panic / budget-exceeded outcome
	ReasonSlow          = "slow"           // latency above the rolling quantile
	ReasonLowEfficiency = "low_efficiency" // measured parallel efficiency below floor
)

// A RetainedTrace is one solve's trace the tail sampler decided to
// keep, with enough derived metadata to triage it from the index page
// without opening the Chrome export.
type RetainedTrace struct {
	// Seq is the retention sequence number (monotonic, never reused),
	// assigned when the request finishes; it addresses the trace's
	// Chrome export download.
	Seq uint64 `json:"seq"`
	// RequestID is the solve's end-to-end request ID.
	RequestID string `json:"requestId"`
	// Tenant is the requesting tenant ("" if anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Outcome is the solve outcome ("ok", "error", "budget", …) as the
	// server classified it.
	Outcome string `json:"outcome"`
	// Reason says why the sampler kept this trace (Reason* constants).
	Reason string `json:"reason"`
	// Start is the wall-clock time the solve began.
	Start time.Time `json:"start"`
	// WallSeconds is the solve's measured wall time in seconds.
	WallSeconds float64 `json:"wallSeconds"`
	// Workers is the parallel worker count the solve ran with (0 if
	// sequential or unknown).
	Workers int `json:"workers"`
	// Efficiency is the measured parallel efficiency
	// (Summary.Efficiency), 0 when Workers is 0.
	Efficiency float64 `json:"efficiency"`
	// SerialFraction is the trace's measured Amdahl serial fraction.
	SerialFraction float64 `json:"serialFraction"`
	// Spans and DroppedSpans count recorded and cap-dropped spans.
	Spans        int `json:"spans"`
	DroppedSpans int `json:"droppedSpans"`
}

// StoreDump is the schema-versioned JSON served at /debug/traces: the
// retained traces of the requests still in the completed-request ring,
// newest first.
type StoreDump struct {
	Schema string `json:"schema"`
	// Capacity is the completed-request ring size, which bounds the
	// traces held.
	Capacity int `json:"capacity"`
	// Seen counts solves the tail sampler considered; Retained those
	// it kept; Evicted the kept ones whose requests left the ring.
	Seen     uint64            `json:"seen"`
	Retained uint64            `json:"retained"`
	Evicted  uint64            `json:"evicted"`
	ByReason map[string]uint64 `json:"byReason"`
	Traces   []RetainedTrace   `json:"traces"`
}

// Validate checks the dump's structural invariants: schema string,
// len(traces) ≤ capacity and ≤ retained, strictly decreasing sequence
// numbers (newest first), every trace carrying a reason the byReason
// index also counts, and non-negative measurements.
func (d StoreDump) Validate() error {
	if d.Schema != StoreSchema {
		return fmt.Errorf("trace: store dump schema %q, want %q", d.Schema, StoreSchema)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("trace: store dump capacity %d not positive", d.Capacity)
	}
	if len(d.Traces) > d.Capacity {
		return fmt.Errorf("trace: store dump holds %d traces, over its capacity %d", len(d.Traces), d.Capacity)
	}
	if uint64(len(d.Traces)) > d.Retained {
		return fmt.Errorf("trace: store dump holds %d traces but reports only %d retained", len(d.Traces), d.Retained)
	}
	if d.Retained > d.Seen {
		return fmt.Errorf("trace: store dump retained %d > seen %d", d.Retained, d.Seen)
	}
	var prev uint64
	for i, rt := range d.Traces {
		if rt.Seq == 0 {
			return fmt.Errorf("trace: retained trace %d has no sequence number", i)
		}
		if i > 0 && rt.Seq >= prev {
			return fmt.Errorf("trace: retained traces not newest-first (seq %d after %d)", rt.Seq, prev)
		}
		prev = rt.Seq
		if rt.Reason == "" {
			return fmt.Errorf("trace: retained trace seq %d has no retention reason", rt.Seq)
		}
		if d.ByReason[rt.Reason] == 0 {
			return fmt.Errorf("trace: retained trace seq %d reason %q missing from byReason index", rt.Seq, rt.Reason)
		}
		if rt.WallSeconds < 0 {
			return fmt.Errorf("trace: retained trace seq %d has negative wall time", rt.Seq)
		}
		if rt.Spans < 0 || rt.DroppedSpans < 0 {
			return fmt.Errorf("trace: retained trace seq %d has negative span counts", rt.Seq)
		}
		if rt.Efficiency < 0 || rt.SerialFraction < 0 || rt.SerialFraction > 1+1e-9 {
			return fmt.Errorf("trace: retained trace seq %d has out-of-range efficiency/serial fraction", rt.Seq)
		}
	}
	return nil
}

// ValidateStoreJSON parses data as a trace-store dump and validates
// it. It is the cmd/validatetrace and CI entry point.
func ValidateStoreJSON(data []byte) error {
	var d StoreDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("trace: invalid trace-store JSON: %w", err)
	}
	return d.Validate()
}
