package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net/http"
	"net/http/httptest"
	"time"

	"realroots/internal/server"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// The server pass sends the same requests to three fresh in-process
// rootd twins: "http" through the handler with tracing on (the
// default), "notrace" through the handler with DisableTracing, and
// "solve" straight into Server.Solve with the body already decoded.
// Their differences are the HTTP layer's and the tracing's cost.
type twin struct {
	name   string
	srv    *server.Server
	h      http.Handler
	direct bool
}

func newTwins() []*twin {
	var ts []*twin
	for _, name := range []string{"http", "notrace", "solve"} {
		srv := newRootd(name == "notrace")
		ts = append(ts, &twin{name: name, srv: srv, h: srv.Handler(), direct: name == "solve"})
	}
	return ts
}

func drainTwins(ts []*twin) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, t := range ts {
		t.srv.Drain(ctx)
	}
}

// call sends one request and returns the status and raw reply. The
// "http" twin asks for its trace to be retained so the pass can count
// every solve's spans.
func (t *twin) call(data []byte, req *server.SolveRequest, id string) (int, []byte) {
	if t.direct {
		return solveDirect(t.srv, req, id)
	}
	return post(t.h, data, id, t.name == "http")
}

// A serverReq is one request of a closed-loop server pass.
type serverReq struct {
	data []byte
	want []refRoot
}

// debugCollector reads the "http" twin's /debug/requests and
// /debug/traces JSON while load runs (both are bounded rings, so it
// polls) and keeps every completed leader's exact queue wait and every
// retained trace.
type debugCollector struct {
	h      http.Handler
	waits  map[string]float64 // request id → queue wait, ms
	traces map[uint64]trace.RetainedTrace
}

func newCollector(h http.Handler) *debugCollector {
	return &debugCollector{h: h, waits: map[string]float64{}, traces: map[uint64]trace.RetainedTrace{}}
}

func (d *debugCollector) poll() error {
	data, err := get(d.h, "/debug/requests?format=json")
	if err != nil {
		return err
	}
	dump, err := telemetry.ValidateRequestsJSON(data)
	if err != nil {
		return err
	}
	for _, r := range dump.Recent {
		if r.CacheOutcome == "miss" && r.Outcome == "ok" {
			d.waits[r.ID] = r.QueueWaitSecs * 1e3
		}
	}
	if data, err = get(d.h, "/debug/traces?format=json"); err != nil {
		return err
	}
	if err := trace.ValidateStoreJSON(data); err != nil {
		return err
	}
	var store trace.StoreDump
	if err := json.Unmarshal(data, &store); err != nil {
		return err
	}
	for _, t := range store.Traces {
		d.traces[t.Seq] = t
	}
	return nil
}

// twinSample is one twin's view of the pass.
type twinSample struct {
	lat        []float64
	ok, cached int
}

// tally checks one twin's reply and counts it into s.
func (s *twinSample) tally(res *result, label string, status int, raw []byte, want []refRoot) {
	if resp := checkReply(res, label, status, raw, want); resp != nil {
		s.ok++
		if resp.Cached {
			s.cached++
		}
	}
}

// serverPassClosed sends reqs one at a time (closed loop) to each twin
// in rotating order.
func serverPassClosed(res *result, reqs []serverReq, log io.Writer) error {
	ts := newTwins()
	defer drainTwins(ts)
	col := newCollector(ts[0].h)
	samples := map[string]*twinSample{}
	for _, t := range ts {
		samples[t.name] = &twinSample{}
	}
	var lags []float64
	var prevDone time.Time
	for i, rq := range reqs {
		decoded, err := server.DecodeSolveRequest(rq.data)
		if err != nil {
			return err
		}
		for k := range ts {
			t := ts[(i+k)%len(ts)]
			label := fmt.Sprintf("%s-%d", t.name, i)
			t0 := time.Now()
			if !prevDone.IsZero() {
				lags = append(lags, ms(t0.Sub(prevDone)))
			}
			status, raw := t.call(rq.data, decoded, label)
			prevDone = time.Now()
			s := samples[t.name]
			s.lat = append(s.lat, ms(prevDone.Sub(t0)))
			s.tally(res, label, status, raw, rq.want)
		}
		if i%16 == 15 {
			if err := col.poll(); err != nil {
				return err
			}
		}
	}
	if err := col.poll(); err != nil {
		return err
	}
	serverMetrics(res, samples, col, lags, log)
	return nil
}

func serverMetrics(res *result, samples map[string]*twinSample, col *debugCollector, lags []float64, log io.Writer) {
	h, nt, sv := samples["http"], samples["notrace"], samples["solve"]
	for _, name := range []string{"http", "notrace", "solve"} {
		logLatency(log, "server twin "+name, samples[name].lat)
	}
	waits := make([]float64, 0, len(col.waits))
	for _, w := range col.waits {
		waits = append(waits, w)
	}
	var spans, dropped int
	for _, t := range col.traces {
		spans += t.Spans
		dropped += t.DroppedSpans
	}
	fmt.Fprintf(log, "queue waits: n=%d; retained traces: %d (%d spans dropped)\n", len(waits), len(col.traces), dropped)
	p50 := func(s *twinSample) float64 { return percentile(s.lat, 0.5) }
	res.set("server.solve_ms", p50(sv), "ms")
	res.set("server.http_overhead_ms", p50(h)-p50(sv), "ms")
	res.set("server.queue_wait_p99_ms", percentile(waits, 0.99), "ms")
	res.set("server.cache_hit_frac", ratio(float64(h.cached), float64(h.ok)), "ratio")
	res.set("telemetry.trace_overhead_frac", ratio(p50(h), p50(nt))-1, "ratio")
	res.set("trace.spans_per_solve", ratio(float64(spans), float64(len(col.traces))), "count")
	res.set("gen.lag_p99_ms", percentile(lags, 0.99), "ms")
}

// newRootd returns an in-process rootd with cmd/rootd's defaults and
// its solve log written to io.Discard.
func newRootd(disableTracing bool) *server.Server {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return server.New(server.Config{
		MaxQueue:         256,
		WorkersPerSolve:  2,
		SolveTimeout:     60 * time.Second,
		DefaultPrecision: 32,
		Burst:            8,
		CacheEntries:     256,
		DisableTracing:   disableTracing,
		Telemetry:        telemetry.New(telemetry.Config{Logger: logger}),
		Logger:           logger,
	})
}

// post sends one body through the handler, as an HTTP client would
// but without a socket.
func post(h http.Handler, data []byte, id string, debugTrace bool) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(data))
	req.Header.Set("X-Request-Id", id)
	if debugTrace {
		req.Header.Set("X-Debug-Trace", "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// get fetches a debug endpoint through the handler.
func get(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// checkReply verifies one reply against want, notes it in res, and
// returns the decoded response when it is correct.
func checkReply(res *result, label string, status int, raw []byte, want []refRoot) *server.SolveResponse {
	if status != http.StatusOK {
		res.note(label, fmt.Errorf("status %d: %s", status, raw), nil)
		return nil
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		res.note(label, err, nil)
		return nil
	}
	if !res.note(label, nil, compareResponse(&resp, want)) {
		return nil
	}
	return &resp
}

func compareResponse(resp *server.SolveResponse, want []refRoot) error {
	got := make([]refRoot, len(resp.Roots))
	for i, r := range resp.Roots {
		v, ok := new(big.Rat).SetString(r.Value)
		if !ok {
			return fmt.Errorf("root %d: bad value %q", i, r.Value)
		}
		got[i] = refRoot{val: v, mult: r.Multiplicity}
	}
	return compareRoots(got, want)
}

// solveDirect calls Server.Solve on a decoded request, bypassing the
// HTTP handler.
func solveDirect(srv *server.Server, req *server.SolveRequest, id string) (int, []byte) {
	r := *req
	r.RequestID = id
	resp, err := srv.Solve(context.Background(), &r)
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error())
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error())
	}
	return http.StatusOK, b
}
