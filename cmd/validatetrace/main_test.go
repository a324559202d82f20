package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"realroots/internal/harness"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateFileSniffsKinds(t *testing.T) {
	// Flight dump.
	f := telemetry.NewFlight(64)
	f.Begin(1, 0, "task", "task")
	f.End(1, 0, "task")
	var flight bytes.Buffer
	if err := f.Dump().WriteJSON(&flight); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition.
	tel := telemetry.New(telemetry.Config{})
	var expo bytes.Buffer
	if err := tel.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}

	// Bench grid.
	cfg := harness.Quick()
	cfg.Degrees, cfg.Mus, cfg.Procs, cfg.Seeds = []int{6}, []uint{4}, []int{1}, []int64{1}
	cfg.Simulate = true
	var grid bytes.Buffer
	if err := harness.WriteGridJSON(&grid, cfg); err != nil {
		t.Fatal(err)
	}

	// The request tracker's three views: one request that led a solve
	// whose (forced) trace was retained.
	tracker := telemetry.NewRequestTracker(0)
	r := tracker.Start(telemetry.RequestInfo{ID: "r1", Tenant: "acme", Kind: "solve"})
	r.Led(telemetry.LedSolve{Elapsed: 250 * time.Millisecond, BitOps: 1000, Outcome: telemetry.OutcomeOK, Tracer: trace.New(), Forced: true})
	r.Finish("ok")
	encode := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"flight.json", flight.Bytes(), "flight-dump"},
		{"metrics.prom", expo.Bytes(), "prometheus-exposition"},
		{"grid.json", grid.Bytes(), "bench-grid"},
		{"requests.json", encode(tracker.Dump()), "requests-dump"},
		{"traces.json", encode(tracker.Traces()), "trace-store"},
		{"tenants.json", encode(tracker.Tenants()), "tenants-dump"},
	}
	for _, tc := range cases {
		kind, err := validateFile(writeTemp(t, tc.name, tc.data))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if kind != tc.want {
			t.Errorf("%s sniffed as %q, want %q", tc.name, kind, tc.want)
		}
	}
}

func TestValidateFileRejectsCorrupt(t *testing.T) {
	corruptFlight := []byte(`{"schema":"realroots/flight/v1","capacity":0,"written":0,"dropped":0,"records":[]}`)
	if _, err := validateFile(writeTemp(t, "bad-flight.json", corruptFlight)); err == nil {
		t.Error("corrupt flight dump validated")
	}
	corruptExpo := []byte("# HELP a b\na 1\n") // sample without TYPE
	if _, err := validateFile(writeTemp(t, "bad.prom", corruptExpo)); err == nil {
		t.Error("corrupt exposition validated")
	}
	if _, err := validateFile(writeTemp(t, "bad-grid.json", []byte(`{"schema":"nope"}`))); err == nil {
		t.Error("corrupt grid validated")
	}
	if _, err := validateFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file validated")
	}
}

// TestValidateFileRejectsMalformedStoreAndTenants is the malformed-input
// table for the request tracker's three dumps: each case sniffs to the
// right kind (the schema string is present) but must fail validation.
func TestValidateFileRejectsMalformedStoreAndTenants(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"store-not-json", `realroots/trace-store/v1 this is not json`},
		{"store-zero-capacity", `{"schema":"realroots/trace-store/v1","capacity":0,"traces":[]}`},
		{"store-over-capacity", `{"schema":"realroots/trace-store/v1","capacity":1,"seen":2,"retained":2,
			"byReason":{"error":2},
			"traces":[{"seq":2,"requestId":"b","outcome":"error","reason":"error"},
			          {"seq":1,"requestId":"a","outcome":"error","reason":"error"}]}`},
		{"store-retained-undercount", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":0,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-seq-zero", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":0,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-not-newest-first", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":2,"retained":2,
			"byReason":{"error":2},
			"traces":[{"seq":1,"requestId":"a","outcome":"error","reason":"error"},
			          {"seq":2,"requestId":"b","outcome":"error","reason":"error"}]}`},
		{"store-missing-reason", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"","wallSeconds":0.1}]}`},
		{"store-reason-not-indexed", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"slow":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-negative-wall", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":-1}]}`},
		{"store-serial-fraction-above-one", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","serialFraction":1.5}]}`},
		{"requests-not-json", `realroots/requests/v2 {{{`},
		{"requests-total-under-full-ring", `{"schema":"realroots/requests/v2","capacity":2,"total":0,"recent":[
			{"id":"a","active":false,"outcome":"ok"},{"id":"b","active":false,"outcome":"ok"}]}`},
		{"requests-total-under-active", `{"schema":"realroots/requests/v2","capacity":4,"total":0,
			"active":[{"id":"a","active":true}]}`},
		{"requests-over-capacity", `{"schema":"realroots/requests/v2","capacity":1,"total":2,"recent":[
			{"id":"a","active":false,"outcome":"ok"},{"id":"b","active":false,"outcome":"ok"}]}`},
		{"requests-missing-outcome", `{"schema":"realroots/requests/v2","capacity":4,"total":1,
			"recent":[{"id":"a","active":false}]}`},
		{"requests-trace-reason-without-seq", `{"schema":"realroots/requests/v2","capacity":4,"total":1,
			"recent":[{"id":"a","active":false,"outcome":"ok","traceReason":"forced"}]}`},
		{"tenants-not-json", `realroots/tenants/v1 {{{`},
		{"tenants-zero-cap", `{"schema":"realroots/tenants/v1","maxTenants":0,"tenants":[]}`},
		{"tenants-empty-id", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"","requests":1}]}`},
		{"tenants-unsorted", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"b","requests":1},{"tenant":"a","requests":1}]}`},
		{"tenants-duplicate", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":1},{"tenant":"a","requests":1}]}`},
		{"tenants-negative-counter", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":-1}]}`},
		{"tenants-overaccounted", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":1,"cacheHits":1,"rejections":1}]}`},
	}
	for _, tc := range cases {
		if _, err := validateFile(writeTemp(t, tc.name+".json", []byte(tc.data))); err == nil {
			t.Errorf("%s: malformed input validated", tc.name)
		}
	}
}
