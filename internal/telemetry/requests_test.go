package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"realroots/internal/sched"
	"realroots/internal/trace"
)

func TestRequestTrackerLifecycle(t *testing.T) {
	tr := NewRequestTracker(8)
	r := tr.Start(RequestInfo{
		ID: "req-1", Tenant: "acme", Kind: "solve", Method: "poly",
		Profile: "paper", Degree: 12, Mu: 32, EstimatedBitOps: 1000,
	})
	r.SetCacheOutcome("miss")
	r.SetQueueWait(5 * time.Millisecond)
	r.Observe(sched.Event{Kind: sched.PhaseBegin, Name: "refine"})

	d := tr.Dump()
	if len(d.Active) != 1 || len(d.Recent) != 0 {
		t.Fatalf("mid-flight dump: %d active, %d recent, want 1, 0", len(d.Active), len(d.Recent))
	}
	a := d.Active[0]
	if a.ID != "req-1" || !a.Active || a.Phase != "refine" || a.CacheOutcome != "miss" {
		t.Fatalf("active snapshot = %+v", a)
	}
	if a.TotalSecs <= 0 {
		t.Error("active snapshot has no elapsed time")
	}

	r.SetSolve(20*time.Millisecond, 2500, 96)
	r.Finish("ok")

	d = tr.Dump()
	if len(d.Active) != 0 || len(d.Recent) != 1 {
		t.Fatalf("post-finish dump: %d active, %d recent, want 0, 1", len(d.Active), len(d.Recent))
	}
	got := d.Recent[0]
	if got.Outcome != "ok" || got.Active {
		t.Fatalf("finished snapshot = %+v", got)
	}
	if got.ActualBitOps != 2500 || got.PeakOperandBits != 96 {
		t.Fatalf("solve numbers = %+v", got)
	}
	if got.CostRatio != 2.5 {
		t.Fatalf("CostRatio = %v, want 2.5 (actual 2500 / estimated 1000)", got.CostRatio)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRequestTrackerRingWrap(t *testing.T) {
	const capacity = 4
	tr := NewRequestTracker(capacity)
	for i := 0; i < 10; i++ {
		r := tr.Start(RequestInfo{ID: fmt.Sprintf("req-%d", i)})
		r.Finish("ok")
	}
	d := tr.Dump()
	if d.Total != 10 {
		t.Fatalf("Total = %d, want 10", d.Total)
	}
	if len(d.Recent) != capacity {
		t.Fatalf("%d recent entries, want ring capacity %d", len(d.Recent), capacity)
	}
	// Newest first: 9, 8, 7, 6.
	for i, want := range []string{"req-9", "req-8", "req-7", "req-6"} {
		if d.Recent[i].ID != want {
			t.Errorf("Recent[%d].ID = %s, want %s", i, d.Recent[i].ID, want)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNilRequestTracker(t *testing.T) {
	var tr *RequestTracker
	r := tr.Start(RequestInfo{ID: "x"})
	if r != nil {
		t.Fatal("nil tracker returned a non-nil handle")
	}
	// All handle methods must no-op on nil.
	r.Observe(sched.Event{Kind: sched.PhaseBegin, Name: "p"})
	r.SetCacheOutcome("miss")
	r.SetQueueWait(time.Second)
	r.SetSolve(time.Second, 1, 1)
	if reason := r.Led(LedSolve{Forced: true, Tracer: recordedTracer(t, 1)}); reason != "" {
		t.Errorf("nil handle retained a trace as %q", reason)
	}
	r.Finish("ok")
	r.Reject("rate_limited")
	d := tr.Dump()
	if d == nil || d.Schema != RequestsSchema {
		t.Fatalf("nil tracker Dump = %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("empty dump invalid: %v", err)
	}
	// The other views dump empty; a nil tracker retains no traces.
	if tr.Trace(1) != nil || len(tr.Traces().Traces) != 0 || len(tr.Tenants().Tenants) != 0 {
		t.Error("nil tracker returned data")
	}
	if err := tr.Traces().Validate(); err == nil {
		t.Error("nil tracker traces dump validated (schema is set but capacity is 0)")
	}
	if err := tr.Tenants().Validate(); err != nil {
		t.Errorf("nil tracker tenants dump invalid: %v", err)
	}
}

// recordedTracer builds a small completed trace with nSpans control-lane
// task spans.
func recordedTracer(t *testing.T, nSpans int) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	l := tr.Lane(trace.ControlLane, "control")
	for i := 0; i < nSpans; i++ {
		l.Begin(fmt.Sprintf("task%d", i), trace.CatTask)
		l.End()
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// leadAndFinish runs one request through tr that leads a traced solve
// failing with a budget error, so the tail sampler always retains it.
func leadAndFinish(tr *RequestTracker, id, tenant string, tracer *trace.Tracer) string {
	r := tr.Start(RequestInfo{ID: id, Tenant: tenant, Kind: "solve", EstimatedBitOps: 100})
	r.SetCacheOutcome("miss")
	reason := r.Led(LedSolve{
		Start: time.Unix(1700000000, 0), Elapsed: 250 * time.Millisecond, BitOps: 400,
		Outcome: OutcomeBudget, Workers: 2, Tracer: tracer, Efficiency: 0.5, SerialFraction: 0.25,
	})
	r.Finish("budget_exceeded")
	return reason
}

// TestRequestTrackerRetainsTraces pins the retained traces' lifetime:
// a trace lives exactly as long as its request's record stays in the
// ring. Sequence numbers are monotonic and never reused, the view is
// newest first, and an evicted trace no longer resolves by seq.
func TestRequestTrackerRetainsTraces(t *testing.T) {
	tr := NewRequestTracker(3)
	for i := 0; i < 5; i++ {
		if reason := leadAndFinish(tr, fmt.Sprintf("r%d", i), "acme", recordedTracer(t, 2)); reason != trace.ReasonError {
			t.Fatalf("request %d retained as %q, want %q", i, reason, trace.ReasonError)
		}
	}
	// A request that led no traced solve keeps nothing and pushes the
	// oldest retained trace out of the ring.
	tr.Start(RequestInfo{ID: "hit"}).Finish("ok")

	rows := tr.Dump().Recent
	for i, want := range []uint64{0, 5, 4} {
		if rows[i].TraceSeq != want {
			t.Errorf("recent[%d] (%s) traceSeq = %d, want %d", i, rows[i].ID, rows[i].TraceSeq, want)
		}
	}
	d := tr.Traces()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Traces) != 2 || d.Traces[0].Seq != 5 || d.Traces[1].Seq != 4 {
		t.Fatalf("traces = %+v, want seqs 5, 4", d.Traces)
	}
	got := d.Traces[1]
	if got.RequestID != "r3" || got.Tenant != "acme" || got.Outcome != string(OutcomeBudget) ||
		got.Reason != trace.ReasonError || got.WallSeconds != 0.25 || got.Workers != 2 ||
		got.Efficiency != 0.5 || got.SerialFraction != 0.25 || got.Spans != 2 {
		t.Errorf("trace 4 = %+v", got)
	}
	if d.Capacity != 3 || d.Seen != 5 || d.Retained != 5 || d.Evicted != 3 || d.ByReason[trace.ReasonError] != 5 {
		t.Errorf("capacity/seen/retained/evicted/byReason = %d/%d/%d/%d/%v, want 3/5/5/3/error=5",
			d.Capacity, d.Seen, d.Retained, d.Evicted, d.ByReason)
	}
	if tr.Trace(3) != nil {
		t.Error("evicted trace still reachable")
	}
	if tr.Trace(4) == nil {
		t.Error("live trace 4 not reachable")
	}

	// The dump round-trips through JSON and the validator entry point.
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateStoreJSON(data); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTrackerTraceChromeExport checks that a retained trace
// exports valid Chrome JSON carrying the request ID, and that a
// dropped trace is not pinned.
func TestRequestTrackerTraceChromeExport(t *testing.T) {
	tr := NewRequestTracker(4)
	tracer := recordedTracer(t, 3)
	tracer.SetRequestID("req-chrome")
	leadAndFinish(tr, "req-chrome", "", tracer)
	var buf strings.Builder
	if err := tr.Trace(1).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome([]byte(buf.String())); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "req-chrome") {
		t.Error("chrome export lost the request ID")
	}

	// A healthy sequential solve is seen but dropped: no seq, no tracer.
	r := tr.Start(RequestInfo{ID: "healthy"})
	if reason := r.Led(LedSolve{Outcome: OutcomeOK, Workers: 1, Tracer: recordedTracer(t, 1)}); reason != "" {
		t.Fatalf("healthy solve retained as %q", reason)
	}
	r.Finish("ok")
	if d := tr.Traces(); d.Seen != 2 || d.Retained != 1 || tr.Trace(2) != nil {
		t.Errorf("seen/retained = %d/%d, trace 2 = %v; want 2/1/nil", d.Seen, d.Retained, tr.Trace(2))
	}
	if tr.recent[1].tracer != nil {
		t.Error("dropped trace still pinned by its record")
	}
}

func TestValidateRequestsJSON(t *testing.T) {
	tr := NewRequestTracker(4)
	tr.Start(RequestInfo{ID: "live", Tenant: "acme"})
	done := tr.Start(RequestInfo{ID: "done", EstimatedBitOps: 10})
	done.SetSolve(time.Millisecond, 20, 8)
	done.Finish("ok")

	data, err := json.Marshal(tr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ValidateRequestsJSON(data)
	if err != nil {
		t.Fatalf("round-tripped dump rejected: %v", err)
	}
	if len(d.Active) != 1 || d.Active[0].ID != "live" {
		t.Fatalf("active after round trip = %+v", d.Active)
	}
	if len(d.Recent) != 1 || d.Recent[0].CostRatio != 2 {
		t.Fatalf("recent after round trip = %+v", d.Recent)
	}

	bad := map[string]string{
		"wrong schema":    `{"schema":"bogus","capacity":4,"total":0}`,
		"not json":        `{`,
		"old schema":      `{"schema":"realroots/requests/v1","capacity":4,"total":0}`,
		"inactive active": `{"schema":"realroots/requests/v2","capacity":4,"total":1,"active":[{"id":"a","active":false}]}`,
		"active recent":   `{"schema":"realroots/requests/v2","capacity":4,"total":1,"recent":[{"id":"a","active":true,"outcome":"ok"}]}`,
		"missing outcome": `{"schema":"realroots/requests/v2","capacity":4,"total":1,"recent":[{"id":"a","active":false}]}`,
		"over capacity": `{"schema":"realroots/requests/v2","capacity":1,"total":2,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok"},{"id":"b","active":false,"outcome":"ok"}]}`,
		"total under full ring": `{"schema":"realroots/requests/v2","capacity":2,"total":0,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok"},{"id":"b","active":false,"outcome":"ok"}]}`,
		"negative timing": `{"schema":"realroots/requests/v2","capacity":4,"total":1,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok","totalSeconds":-1}]}`,
		"trace seq without reason": `{"schema":"realroots/requests/v2","capacity":4,"total":1,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok","traceSeq":3}]}`,
	}
	for name, doc := range bad {
		if _, err := ValidateRequestsJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted, want rejection", name)
		}
	}
}

// TestRequestTrackerConcurrent exercises the tracker from many
// goroutines — records leading traced solves, retaining and evicting
// traces, folding tenant rows — while every view is dumped and
// validated (run with -race).
func TestRequestTrackerConcurrent(t *testing.T) {
	tr := NewRequestTracker(16)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.Dump().Validate(); err != nil {
				t.Errorf("mid-run requests dump invalid: %v", err)
				return
			}
			if err := tr.Traces().Validate(); err != nil {
				t.Errorf("mid-run traces dump invalid: %v", err)
				return
			}
			if err := tr.Tenants().Validate(); err != nil {
				t.Errorf("mid-run tenants dump invalid: %v", err)
				return
			}
			tr.Trace(uint64(i))
		}
	}()
	const goroutines, per = 8, 50
	donec := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { donec <- struct{}{} }()
			for i := 0; i < per; i++ {
				r := tr.Start(RequestInfo{ID: fmt.Sprintf("c%d-%d", g, i), Tenant: fmt.Sprintf("t%d", i%4)})
				r.Observe(sched.Event{Kind: sched.PhaseBegin, Name: "solve"})
				outcome := OutcomeOK
				if i%5 == 0 {
					outcome = OutcomeError
				}
				r.Led(LedSolve{Elapsed: time.Microsecond, BitOps: 10, Outcome: outcome, Tracer: trace.New()})
				r.SetSolve(time.Microsecond, 10, 4)
				r.Finish(string(outcome))
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-donec
	}
	close(stop)
	<-readerDone
	d := tr.Dump()
	if d.Total != goroutines*per {
		t.Fatalf("Total = %d, want %d", d.Total, goroutines*per)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	traces := tr.Traces()
	if err := traces.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(goroutines * per / 5); traces.Seen != goroutines*per || traces.Retained != want {
		t.Errorf("seen/retained = %d/%d, want %d/%d", traces.Seen, traces.Retained, goroutines*per, want)
	}
	var solves int64
	for _, row := range tr.Tenants().Tenants {
		solves += row.Solves
	}
	if solves != goroutines*per {
		t.Errorf("tenant rows account %d solves, want %d (lost updates)", solves, goroutines*per)
	}
}

// serveDebug fetches one path from a hub's debug server and returns
// the body, failing the test on any transport or status error.
func serveDebug(t *testing.T, hub *Telemetry, path string) []byte {
	t.Helper()
	srv, err := hub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// TestRequestsEndpoint checks both renderings of /debug/requests on the
// telemetry debug server.
func TestRequestsEndpoint(t *testing.T) {
	hub := New(Config{})
	r := hub.Requests().Start(RequestInfo{
		ID: "dbg-1", Tenant: "acme", Kind: "solve", Degree: 8, Mu: 32, EstimatedBitOps: 100,
	})
	r.SetSolve(time.Millisecond, 250, 64)
	r.Finish("ok")

	data := serveDebug(t, hub, "/debug/requests?format=json")
	d, err := ValidateRequestsJSON(data)
	if err != nil {
		t.Fatalf("/debug/requests json invalid: %v\n%s", err, data)
	}
	if len(d.Recent) != 1 || d.Recent[0].ID != "dbg-1" || d.Recent[0].CostRatio != 2.5 {
		t.Fatalf("dump = %+v", d.Recent)
	}

	html := string(serveDebug(t, hub, "/debug/requests"))
	for _, want := range []string{"dbg-1", "acme", "2.50"} {
		if !strings.Contains(html, want) {
			t.Errorf("html view missing %q:\n%s", want, html)
		}
	}
}
