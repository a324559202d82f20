// Package telemetry is the always-on operational counterpart to the
// per-run tracing of internal/trace. Where a Tracer records every span
// of one solve into unbounded lanes (for offline analysis of a single
// run), telemetry is built to stay enabled in a long-running process:
//
//   - a structured event log on log/slog with per-solve lifecycle
//     events (run ID, start/finish, phase transitions, retries, panic
//     isolation, budget exhaustion, cancellation);
//   - a metrics Registry accumulating per-run metrics.Counters
//     snapshots, scheduler statistics, and trace utilization summaries,
//     rendered in Prometheus text exposition format;
//   - a Flight recorder: a fixed-size lock-free ring buffer of recent
//     spans and events that can be dumped on error, SIGQUIT, or request;
//   - a RequestTracker: the one record per server request, kept in a
//     bounded ring once finished. A record carries its request's cost,
//     phase and outcome, the tail sampler's verdict on the solve it led
//     (with the retained trace itself), and folds into its tenant's
//     usage row. /debug/requests, /debug/traces, /debug/tenants and the
//     rootd_tenant_* families are views over it.
//
// Everything is nil-safe in the style of metrics.Counters and
// trace.Tracer: a nil *Telemetry (and the nil *Run it hands out) makes
// every call a zero-allocation no-op, so the solver can be plumbed
// unconditionally and pay nothing when telemetry is disabled.
//
// The package depends only on internal/metrics, internal/trace and
// internal/sched so that core can feed it without an import cycle: a
// *Run subscribes to a solve's sched.Observer stream.
package telemetry

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"realroots/internal/metrics"
	"realroots/internal/sched"
	"realroots/internal/trace"
)

// Outcome classifies how a solve run ended. The values are the label
// set of the realroots_solves_total exposition family.
type Outcome string

const (
	OutcomeOK       Outcome = "ok"
	OutcomeCanceled Outcome = "canceled"
	OutcomeDeadline Outcome = "deadline"
	OutcomeBudget   Outcome = "budget"
	OutcomePanic    Outcome = "panic"
	OutcomeError    Outcome = "error"
)

// Outcomes lists every outcome in the stable order used by the
// Prometheus exposition.
var Outcomes = []Outcome{
	OutcomeOK, OutcomeCanceled, OutcomeDeadline, OutcomeBudget, OutcomePanic, OutcomeError,
}

// ControlLane is the flight-recorder lane for run-lifecycle and phase
// records, matching trace.ControlLane; worker lanes are ≥ 0.
const ControlLane = trace.ControlLane

// DefaultFlightCapacity is the flight-recorder ring size used when
// Config.FlightCapacity is zero.
const DefaultFlightCapacity = 4096

// Config configures a telemetry hub.
type Config struct {
	// Logger receives the structured solve log. nil disables logging;
	// the registry and flight recorder still run.
	Logger *slog.Logger
	// FlightCapacity is the flight-recorder ring size in records
	// (0 = DefaultFlightCapacity).
	FlightCapacity int
}

// Telemetry is the hub tying the solve log, the registry, the flight
// recorder and the request tracker together. One hub serves a whole
// process: runs from concurrent solves interleave safely.
type Telemetry struct {
	logger   *slog.Logger
	flight   *Flight
	reg      *Registry
	requests *RequestTracker
	runSeq   atomic.Uint64
}

// New creates a telemetry hub.
func New(cfg Config) *Telemetry {
	capacity := cfg.FlightCapacity
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	t := &Telemetry{
		logger:   cfg.Logger,
		flight:   NewFlight(capacity),
		requests: NewRequestTracker(DefaultRequestRingCapacity),
	}
	t.reg = newRegistry(t.flight)
	return t
}

// Requests returns the hub's request tracker, backing the
// /debug/requests, /debug/traces and /debug/tenants inspectors (nil
// for a nil hub).
func (t *Telemetry) Requests() *RequestTracker {
	if t == nil {
		return nil
	}
	return t.requests
}

// Flight returns the hub's flight recorder (nil for a nil hub).
func (t *Telemetry) Flight() *Flight {
	if t == nil {
		return nil
	}
	return t.flight
}

// Registry returns the hub's metrics registry (nil for a nil hub).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Logger returns the hub's structured logger, which may be nil.
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil {
		return nil
	}
	return t.logger
}

// RunInfo describes a solve run to Start: the entry point ("core" for
// the parallel pipeline, "sturm" for the sequential baseline), the
// problem shape, and — when the run serves a tracked request — the
// request ID that every sink should carry.
type RunInfo struct {
	Kind    string
	Degree  int
	Mu      uint
	Workers int
	// RequestID, if non-empty, scopes the run to one external request:
	// every slog record gains a requestId attribute and a
	// "request_id:<id>" control-lane flight event binds the run number
	// to the ID, so one grep over either sink reconstructs the request.
	RequestID string
}

// Start opens a new solve run and emits its start event. On a nil hub
// it returns a nil *Run, on which every method is a zero-allocation
// no-op.
func (t *Telemetry) Start(info RunInfo) *Run {
	if t == nil {
		return nil
	}
	r := &Run{
		ID:        t.runSeq.Add(1),
		tel:       t,
		kind:      info.Kind,
		degree:    info.Degree,
		mu:        info.Mu,
		workers:   info.Workers,
		requestID: info.RequestID,
		start:     time.Now(),
	}
	t.reg.runStarted()
	t.flight.Event(r.ID, ControlLane, "start", int64(info.Degree))
	if r.requestID != "" {
		// The flight Record has no string payload field, so the binding
		// between run number and request ID is its own event whose name
		// carries the ID; everything else on the run is found by run
		// number.
		t.flight.Event(r.ID, ControlLane, "request_id:"+r.requestID, 0)
	}
	if l := t.logger; l != nil {
		attrs := []slog.Attr{
			slog.Uint64("run", r.ID),
			slog.String("kind", info.Kind),
			slog.Int("degree", info.Degree),
			slog.Uint64("mu", uint64(info.Mu)),
			slog.Int("workers", info.Workers),
		}
		attrs = r.appendRequestID(attrs)
		l.LogAttrs(context.Background(), slog.LevelInfo, "solve start", attrs...)
	}
	return r
}

// Run is one solve's handle into the hub. It is created by Start and
// closed by Finish; in between it subscribes to the solve's
// instrumentation stream (Observe). A nil *Run is valid everywhere and
// records nothing.
type Run struct {
	// ID is the process-unique run identifier (1-based).
	ID        uint64
	tel       *Telemetry
	kind      string
	degree    int
	mu        uint
	workers   int
	requestID string
	start     time.Time

	// sched stats reported before Finish via SchedStats; written by the
	// run's control goroutine only.
	sched    sched.PoolStats
	hasSched bool
}

// appendRequestID appends the requestId attribute when the run is
// request-scoped.
func (r *Run) appendRequestID(attrs []slog.Attr) []slog.Attr {
	if r.requestID == "" {
		return attrs
	}
	return append(attrs, slog.String("requestId", r.requestID))
}

// BudgetExhausted records the bit-operation budget tripping. It may be
// called from any goroutine (the arithmetic operation that crosses the
// limit fires it).
func (r *Run) BudgetExhausted(bitOps int64) {
	if r == nil {
		return
	}
	r.tel.flight.Event(r.ID, ControlLane, "budget_exhausted", bitOps)
	if l := r.tel.logger; l != nil {
		l.LogAttrs(context.Background(), slog.LevelWarn, "budget exhausted",
			r.appendRequestID([]slog.Attr{slog.Uint64("run", r.ID), slog.Int64("bitOps", bitOps)})...)
	}
}

// SchedStats reports the run's final scheduler statistics; call it
// before Finish (typically from a defer capturing pool.Stats()).
func (r *Run) SchedStats(s sched.PoolStats) {
	if r == nil {
		return
	}
	r.sched = s
	r.hasSched = true
}

// Utilization publishes a completed run's trace utilization summary to
// the registry gauges. Call it only after the traced run finished.
func (r *Run) Utilization(s trace.Summary) {
	if r == nil {
		return
	}
	r.tel.reg.setUtilization(s)
}

// Finish closes the run: it emits the finish event and log record and
// folds the run's totals (outcome, wall time, roots, bit-operation
// metrics, scheduler stats) into the registry.
func (r *Run) Finish(o Outcome, roots int, bitOps int64, rep metrics.Report) {
	if r == nil {
		return
	}
	elapsed := time.Since(r.start)
	r.tel.flight.Event(r.ID, ControlLane, "finish", int64(roots))
	r.tel.reg.finishRun(o, elapsed, roots, bitOps, rep, r.sched, r.hasSched)
	if l := r.tel.logger; l != nil {
		level := slog.LevelInfo
		switch o {
		case OutcomeOK:
		case OutcomePanic:
			level = slog.LevelError
		default:
			level = slog.LevelWarn
		}
		l.LogAttrs(context.Background(), level, "solve finish",
			r.appendRequestID([]slog.Attr{
				slog.Uint64("run", r.ID),
				slog.String("kind", r.kind),
				slog.String("outcome", string(o)),
				slog.Int("roots", roots),
				slog.Int64("bitOps", bitOps),
				slog.Duration("elapsed", elapsed),
			})...)
	}
}

// Observe records one event of the solve's instrumentation stream
// (sched.Observer). Phases become control-lane flight spans plus
// debug-level log events; pool tasks become flight spans on their
// worker's lane; panics and retries become flight events plus log
// records. The tasks a sequential solve runs on its own goroutine are
// not recorded — except the Sturm baseline's single task, which has no
// phases around it and so is recorded as the run's phase.
func (r *Run) Observe(e sched.Event) {
	if r == nil {
		return
	}
	switch e.Kind {
	case sched.PhaseBegin, sched.PhaseEnd:
		r.phase(e.Name, e.Kind == sched.PhaseBegin)
	case sched.TaskStart, sched.TaskDone:
		begin := e.Kind == sched.TaskStart
		switch {
		case e.Worker == ControlLane && r.kind == "sturm":
			r.phase(e.Name, begin)
		case e.Worker == ControlLane:
		case begin:
			r.tel.flight.Begin(r.ID, e.Worker, e.Name, trace.CatTask)
		default:
			r.tel.flight.End(r.ID, e.Worker, e.Name)
		}
	case sched.TaskPanic:
		r.tel.flight.Event(r.ID, e.Worker, "panic:"+e.Name, 0)
		if l := r.tel.logger; l != nil {
			l.LogAttrs(context.Background(), slog.LevelError, "task panic",
				r.appendRequestID([]slog.Attr{
					slog.Uint64("run", r.ID),
					slog.Int("worker", e.Worker),
					slog.String("task", e.Name),
					slog.Any("value", e.Value),
				})...)
		}
	case sched.TaskRetry:
		r.tel.flight.Event(r.ID, ControlLane, "retry:"+e.Name, int64(e.Left))
		if l := r.tel.logger; l != nil {
			l.LogAttrs(context.Background(), slog.LevelWarn, "task retry",
				r.appendRequestID([]slog.Attr{
					slog.Uint64("run", r.ID),
					slog.String("task", e.Name),
					slog.Int("attemptsLeft", e.Left),
				})...)
		}
	}
}

// phase opens or closes a pipeline phase: a control-lane flight span
// plus a debug-level log event.
func (r *Run) phase(name string, begin bool) {
	msg := "phase end"
	if begin {
		r.tel.flight.Begin(r.ID, ControlLane, name, trace.CatPhase)
		msg = "phase begin"
	} else {
		r.tel.flight.End(r.ID, ControlLane, name)
	}
	if l := r.tel.logger; l != nil && l.Enabled(context.Background(), slog.LevelDebug) {
		l.LogAttrs(context.Background(), slog.LevelDebug, msg,
			r.appendRequestID([]slog.Attr{slog.Uint64("run", r.ID), slog.String("phase", name)})...)
	}
}
