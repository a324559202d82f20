package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"realroots/internal/sched"
	"realroots/internal/trace"
)

// The request record is rootd's one per-request store. Each request
// gets a record when it arrives; when it finishes, the record moves into
// a bounded ring and is folded into its tenant's usage row. The
// /debug/requests, /debug/traces and /debug/tenants inspectors and the
// rootd_tenant_* families are all views over the tracker: a retained
// trace is part of the record of the request whose solve produced it,
// and lives exactly as long as that record stays in the ring.

// RequestsSchema identifies the JSON shape of a /debug/requests dump.
const RequestsSchema = "realroots/requests/v2"

// DefaultRequestRingCapacity bounds the completed-request ring kept for
// /debug/requests (and so the retained traces of /debug/traces). 128
// recent requests is enough to cover a burst while keeping the dump
// small; each retained trace pins one bounded tracer.
const DefaultRequestRingCapacity = 128

// RequestInfo describes one request as it enters the tracker.
type RequestInfo struct {
	ID              string
	Tenant          string
	Kind            string // "solve" for rootd requests
	Method          string
	Profile         string
	Degree          int
	Mu              uint
	EstimatedBitOps int64
}

// RequestSnapshot is the JSON form of one tracked request, active or
// completed. CostRatio is actual/estimated bit-ops (0 until both are
// known) — the "is the paper's cost model honest on this input" number.
type RequestSnapshot struct {
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	Kind            string  `json:"kind"`
	Method          string  `json:"method,omitempty"`
	Profile         string  `json:"profile,omitempty"`
	Degree          int     `json:"degree"`
	Mu              uint    `json:"mu"`
	EstimatedBitOps int64   `json:"estimatedBitOps"`
	ActualBitOps    int64   `json:"actualBitOps"`
	CostRatio       float64 `json:"costRatio"`
	PeakOperandBits int     `json:"peakOperandBits"`
	CacheOutcome    string  `json:"cacheOutcome,omitempty"` // hit, join, miss
	QueueWaitSecs   float64 `json:"queueWaitSeconds"`
	SolveSecs       float64 `json:"solveSeconds"`
	TotalSecs       float64 `json:"totalSeconds"`
	Phase           string  `json:"phase,omitempty"` // last pipeline phase seen
	Outcome         string  `json:"outcome,omitempty"`
	Active          bool    `json:"active"`
	// TraceSeq addresses the request's retained trace
	// (/debug/traces/<seq>); 0 when none was retained. TraceReason says
	// why the tail sampler kept it.
	TraceSeq    uint64 `json:"traceSeq,omitempty"`
	TraceReason string `json:"traceReason,omitempty"`
}

// record is one request's entry: the /debug/requests row plus what
// only the other views read.
type record struct {
	snap     RequestSnapshot
	led      bool // the request led a solve (charged to its tenant)
	rejected bool // refused by admission control
	// trace and tracer hold the led solve's retained trace, if any: its
	// metadata (Seq, RequestID, Tenant and Reason are filled from snap
	// when /debug/traces is dumped) and the spans for its Chrome export.
	trace  trace.RetainedTrace
	tracer *trace.Tracer
}

// ActiveRequest is the tracker's handle for one in-flight request.
// Methods are safe for concurrent use and no-op on a nil receiver.
type ActiveRequest struct {
	tracker *RequestTracker
	start   time.Time

	mu  sync.Mutex
	rec record
}

// RequestTracker keeps the set of in-flight requests, a bounded ring of
// the most recently completed ones, and the per-tenant usage rows they
// fold into.
type RequestTracker struct {
	tail *tailSampler
	seen atomic.Uint64 // led solves the tail sampler considered

	mu     sync.Mutex
	active map[*ActiveRequest]struct{}
	recent []record // ring, next is the write cursor
	next   int
	filled bool
	total  uint64

	traceSeq uint64 // last retained trace's sequence number
	evicted  uint64 // retained traces that left the ring
	byReason map[string]uint64

	tenants map[string]*TenantRow
	named   int // rows other than anonymous and other
}

// NewRequestTracker creates a tracker holding up to capacity completed
// requests (DefaultRequestRingCapacity if capacity <= 0).
func NewRequestTracker(capacity int) *RequestTracker {
	if capacity <= 0 {
		capacity = DefaultRequestRingCapacity
	}
	return &RequestTracker{
		tail:     newTailSampler(),
		active:   make(map[*ActiveRequest]struct{}),
		recent:   make([]record, capacity),
		byReason: make(map[string]uint64),
		tenants:  make(map[string]*TenantRow),
	}
}

// Start registers an in-flight request and returns its handle. A nil
// tracker returns a nil handle, whose methods all no-op.
func (t *RequestTracker) Start(info RequestInfo) *ActiveRequest {
	if t == nil {
		return nil
	}
	r := &ActiveRequest{
		tracker: t,
		start:   time.Now(),
		rec: record{snap: RequestSnapshot{
			ID:              info.ID,
			Tenant:          info.Tenant,
			Kind:            info.Kind,
			Method:          info.Method,
			Profile:         info.Profile,
			Degree:          info.Degree,
			Mu:              info.Mu,
			EstimatedBitOps: info.EstimatedBitOps,
			Active:          true,
		}},
	}
	t.mu.Lock()
	t.active[r] = struct{}{}
	t.total++
	t.mu.Unlock()
	return r
}

// Observe subscribes the request to its solve's instrumentation stream
// (sched.Observer): each phase that begins becomes the request's
// current phase. Task events are ignored.
func (r *ActiveRequest) Observe(e sched.Event) {
	if r == nil || e.Kind != sched.PhaseBegin {
		return
	}
	r.mu.Lock()
	r.rec.snap.Phase = e.Name
	r.mu.Unlock()
}

// SetCacheOutcome records how the single-flight result cache resolved
// the request: "hit", "join", or "miss".
func (r *ActiveRequest) SetCacheOutcome(outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec.snap.CacheOutcome = outcome
	r.mu.Unlock()
}

// SetQueueWait records time spent waiting for an admission slot.
func (r *ActiveRequest) SetQueueWait(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec.snap.QueueWaitSecs = d.Seconds()
	r.mu.Unlock()
}

// SetSolve records the solve outcome numbers: core time, measured
// bit-ops (updating the model-vs-measured cost ratio), and the peak
// operand bit-length seen by the arithmetic instrumentation.
func (r *ActiveRequest) SetSolve(d time.Duration, actualBitOps int64, peakBits int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.setCostLocked(d, actualBitOps)
	r.rec.snap.PeakOperandBits = peakBits
	r.mu.Unlock()
}

func (r *ActiveRequest) setCostLocked(d time.Duration, actualBitOps int64) {
	s := &r.rec.snap
	s.SolveSecs = d.Seconds()
	s.ActualBitOps = actualBitOps
	if s.EstimatedBitOps > 0 && actualBitOps > 0 {
		s.CostRatio = float64(actualBitOps) / float64(s.EstimatedBitOps)
	}
}

// A LedSolve is what the server measured on a solve a request led, as
// its flight leader. It is charged to the request's tenant whether the
// solve succeeded or not.
type LedSolve struct {
	Start   time.Time
	Elapsed time.Duration
	BitOps  int64
	Outcome Outcome
	Workers int
	// Tracer is the solve's bounded, now quiescent tracer; nil when
	// tracing is off, in which case nothing is sampled or retained.
	Tracer *trace.Tracer
	// Forced is the X-Debug-Trace override: always retain.
	Forced bool
	// Efficiency and SerialFraction are the trace's measured parallel
	// efficiency (trace.Summary.Efficiency) and Amdahl serial fraction.
	Efficiency, SerialFraction float64
}

// Led records the solve this request led and puts its trace to the
// tail sampler. It returns the retention reason ("" = dropped); a
// retained trace gets its sequence number when the request finishes.
func (r *ActiveRequest) Led(s LedSolve) (reason string) {
	if r == nil {
		return ""
	}
	if s.Tracer != nil {
		r.tracker.seen.Add(1)
		reason = r.tracker.tail.consider(traceInfo{
			forced:     s.Forced,
			outcome:    s.Outcome,
			seconds:    s.Elapsed.Seconds(),
			workers:    s.Workers,
			efficiency: s.Efficiency,
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec.led = true
	r.setCostLocked(s.Elapsed, s.BitOps)
	if reason != "" {
		r.rec.snap.TraceReason = reason
		r.rec.tracer = s.Tracer
		r.rec.trace = trace.RetainedTrace{
			Outcome:        string(s.Outcome),
			Start:          s.Start,
			WallSeconds:    s.Elapsed.Seconds(),
			Workers:        s.Workers,
			Efficiency:     s.Efficiency,
			SerialFraction: s.SerialFraction,
			Spans:          s.Tracer.SpanCount(),
			DroppedSpans:   s.Tracer.DroppedSpans(),
		}
	}
	return reason
}

// Finish moves the request from the active set into the completed
// ring, stamping its outcome and total latency, and folds it into its
// tenant's row. Call Finish or Reject once.
func (r *ActiveRequest) Finish(outcome string) { r.finish(outcome, false) }

// Reject finishes a request that admission control refused (rate
// limit, overload, full queue, drain); its tenant row counts it as a
// rejection rather than an error.
func (r *ActiveRequest) Reject(outcome string) { r.finish(outcome, true) }

func (r *ActiveRequest) finish(outcome string, rejected bool) {
	if r == nil {
		return
	}
	// Lock order is tracker then request, as in Dump, so a dump never
	// sees a request still in the active set but already marked done.
	t := r.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	r.mu.Lock()
	r.rec.snap.Outcome = outcome
	r.rec.snap.TotalSecs = time.Since(r.start).Seconds()
	r.rec.snap.Active = false
	r.rec.rejected = rejected
	rec := r.rec
	r.mu.Unlock()

	delete(t.active, r)
	if rec.snap.TraceReason != "" {
		t.traceSeq++
		rec.snap.TraceSeq = t.traceSeq
		t.byReason[rec.snap.TraceReason]++
	}
	t.foldLocked(&rec)
	if t.recent[t.next].snap.TraceSeq != 0 {
		t.evicted++
	}
	t.recent[t.next] = rec
	t.next++
	if t.next == len(t.recent) {
		t.next = 0
		t.filled = true
	}
}

// newestFirst calls fn on each completed record, newest first. The
// caller holds t.mu.
func (t *RequestTracker) newestFirst(fn func(*record)) {
	n := t.next
	if t.filled {
		n = len(t.recent)
	}
	for i := 0; i < n; i++ {
		fn(&t.recent[(t.next-1-i+len(t.recent))%len(t.recent)])
	}
}

// RequestsDump is the JSON document served by /debug/requests: the
// in-flight set plus the completed ring, newest first.
type RequestsDump struct {
	Schema   string            `json:"schema"`
	Capacity int               `json:"capacity"`
	Total    uint64            `json:"total"`
	Active   []RequestSnapshot `json:"active"`
	Recent   []RequestSnapshot `json:"recent"`
}

// Dump snapshots the tracker. Active requests are ordered oldest
// first; recent ones newest first. A nil tracker dumps empty.
func (t *RequestTracker) Dump() *RequestsDump {
	d := &RequestsDump{Schema: RequestsSchema}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d.Capacity = len(t.recent)
	d.Total = t.total
	for r := range t.active {
		r.mu.Lock()
		snap := r.rec.snap
		snap.TotalSecs = time.Since(r.start).Seconds()
		r.mu.Unlock()
		d.Active = append(d.Active, snap)
	}
	// Map iteration is unordered; sort oldest first by elapsed time.
	for i := 1; i < len(d.Active); i++ {
		for j := i; j > 0 && d.Active[j].TotalSecs > d.Active[j-1].TotalSecs; j-- {
			d.Active[j], d.Active[j-1] = d.Active[j-1], d.Active[j]
		}
	}
	t.newestFirst(func(rec *record) { d.Recent = append(d.Recent, rec.snap) })
	return d
}

// Validate checks a dump's structural invariants.
func (d *RequestsDump) Validate() error {
	if d.Schema != RequestsSchema {
		return fmt.Errorf("requests: schema %q, want %q", d.Schema, RequestsSchema)
	}
	if d.Capacity < 0 || len(d.Recent) > d.Capacity {
		return fmt.Errorf("requests: %d recent entries exceed capacity %d", len(d.Recent), d.Capacity)
	}
	if d.Total < uint64(len(d.Active)+len(d.Recent)) {
		return fmt.Errorf("requests: total %d inconsistent with %d active + %d recent", d.Total, len(d.Active), len(d.Recent))
	}
	for i, r := range d.Active {
		if !r.Active {
			return fmt.Errorf("requests: active[%d] (%s) not marked active", i, r.ID)
		}
	}
	for i, r := range d.Recent {
		if r.Active {
			return fmt.Errorf("requests: recent[%d] (%s) still marked active", i, r.ID)
		}
		if r.Outcome == "" {
			return fmt.Errorf("requests: recent[%d] (%s) has no outcome", i, r.ID)
		}
		if r.TotalSecs < 0 || r.QueueWaitSecs < 0 || r.SolveSecs < 0 {
			return fmt.Errorf("requests: recent[%d] (%s) has negative timing", i, r.ID)
		}
		if (r.TraceSeq == 0) != (r.TraceReason == "") {
			return fmt.Errorf("requests: recent[%d] (%s) has trace seq %d with reason %q", i, r.ID, r.TraceSeq, r.TraceReason)
		}
	}
	return nil
}

// ValidateRequestsJSON parses and validates a /debug/requests JSON
// document, returning the dump on success.
func ValidateRequestsJSON(data []byte) (*RequestsDump, error) {
	var d RequestsDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("requests: parse: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
