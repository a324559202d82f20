package telemetry

import (
	"sync"

	"realroots/internal/trace"
)

// Tail-based trace sampling. Every solve is traced into a bounded
// buffer; when it completes the sampler decides — with the outcome,
// latency, and measured efficiency in hand — whether the trace is
// interesting enough to retain. This is the inversion of head
// sampling: instead of guessing up front which 1% of requests to
// record, record everything cheaply and keep only the tail that an
// operator would actually open. A kept trace stays with its request's
// record in the tracker's ring; /debug/traces is the view over the
// records that carry one.

// Sampler policy.
const (
	// tailQuantile marks a solve slow when its latency exceeds this
	// rolling quantile of recent solve latencies.
	tailQuantile = 0.95
	// tailMinEfficiency marks a parallel solve interesting when its
	// measured efficiency (speedup/workers) falls below this floor.
	tailMinEfficiency = 0.25
	// tailWindow is how many observations each rolling-quantile window
	// holds before rotating.
	tailWindow = 512
	// tailWarmup is the minimum observations before the latency
	// threshold is trusted; below it nothing is classified slow (the
	// first requests of a fresh process are all "slow" relative to an
	// empty histogram, which would retain everything).
	tailWarmup = 32
)

// tailSampler decides which completed traces to keep. It maintains a
// rolling latency quantile over two rotating fixed-bucket windows:
// observations land in the current window, and once it fills the
// previous window's quantile becomes the threshold — so the threshold
// always reflects a full recent window, never a half-empty one. All
// methods are safe for concurrent use; nil keeps nothing.
type tailSampler struct {
	mu   sync.Mutex
	cur  *Histogram // filling
	prev *Histogram // full, provides the threshold
	curN int
}

func newTailSampler() *tailSampler {
	return &tailSampler{cur: NewHistogram(SecondsBuckets)}
}

// traceInfo is what the sampler knows about a completed solve.
type traceInfo struct {
	forced     bool    // X-Debug-Trace: always retain
	outcome    Outcome // anything but OutcomeOK retains
	seconds    float64 // the solve's wall time
	workers    int     // the efficiency floor applies only above 1
	efficiency float64 // measured parallel efficiency
}

// consider classifies one completed solve: it feeds the latency into
// the rolling window and returns the retention reason ("" = do not
// retain). Priority order: forced > error > slow > low efficiency, so
// a forced trace of a failing solve still reads "forced" and counting
// by reason stays unambiguous.
func (s *tailSampler) consider(info traceInfo) (reason string) {
	if s == nil {
		return ""
	}
	slow := s.observe(info.seconds)
	switch {
	case info.forced:
		return trace.ReasonForced
	case info.outcome != OutcomeOK:
		return trace.ReasonError
	case slow:
		return trace.ReasonSlow
	case info.workers > 1 && info.efficiency < tailMinEfficiency:
		return trace.ReasonLowEfficiency
	}
	return ""
}

// threshold returns the current slow-latency threshold in seconds and
// whether it is trustworthy yet (false during warmup).
func (s *tailSampler) threshold() (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.thresholdLocked()
}

func (s *tailSampler) thresholdLocked() (float64, bool) {
	if s.prev != nil {
		return s.prev.Quantile(tailQuantile), true
	}
	if s.curN >= tailWarmup {
		return s.cur.Quantile(tailQuantile), true
	}
	return 0, false
}

// observe folds one latency into the rolling window and reports
// whether it exceeded the pre-observation threshold.
func (s *tailSampler) observe(seconds float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold, ok := s.thresholdLocked()
	slow := ok && seconds > threshold
	s.cur.Observe(seconds, "")
	s.curN++
	if s.curN >= tailWindow {
		s.prev = s.cur
		s.cur = NewHistogram(SecondsBuckets)
		s.curN = 0
	}
	return slow
}

// Traces snapshots the retained traces of the completed-request ring,
// newest first, as the /debug/traces dump.
func (t *RequestTracker) Traces() trace.StoreDump {
	d := trace.StoreDump{Schema: trace.StoreSchema, ByReason: map[string]uint64{}, Traces: []trace.RetainedTrace{}}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d.Capacity = len(t.recent)
	d.Retained = t.traceSeq
	// Read after Retained: a solve is seen before its trace is retained.
	d.Seen = t.seen.Load()
	d.Evicted = t.evicted
	for k, v := range t.byReason {
		d.ByReason[k] = v
	}
	t.newestFirst(func(rec *record) {
		if rec.snap.TraceSeq == 0 {
			return
		}
		rt := rec.trace
		rt.Seq = rec.snap.TraceSeq
		rt.RequestID = rec.snap.ID
		rt.Tenant = rec.snap.Tenant
		rt.Reason = rec.snap.TraceReason
		d.Traces = append(d.Traces, rt)
	})
	return d
}

// Trace returns the tracer of the retained trace with sequence number
// seq, or nil if it was never retained or its record has left the
// ring. The tracer is quiescent; its solve has finished.
func (t *RequestTracker) Trace(seq uint64) *trace.Tracer {
	if t == nil || seq == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var tr *trace.Tracer
	t.newestFirst(func(rec *record) {
		if rec.snap.TraceSeq == seq {
			tr = rec.tracer
		}
	})
	return tr
}
