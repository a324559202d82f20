// Command validatetrace checks that observability output files emitted
// by rootbench parse against their schemas: Chrome trace-event JSON
// (rootbench -trace), flight-recorder dumps (rootbench -flight-out or
// GET /debug/flight), Prometheus text expositions (rootbench
// -metrics-out or GET /metrics), request-inspector dumps (GET
// /debug/requests?format=json), retained-trace indexes (GET
// /debug/traces?format=json), per-tenant usage rows (GET
// /debug/tenants?format=json), and bench-grid JSON (rootbench -json).
// The file kind is sniffed from the content, so CI can pass all of them
// in one call.
//
// Usage:
//
//	validatetrace trace.json flight.json metrics.prom grid.json ...
//
// Exits 0 when every file validates, 1 otherwise.
package main

import (
	"bytes"
	"fmt"
	"os"

	"realroots/internal/harness"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validatetrace file ...")
		os.Exit(2)
	}
	code := 0
	for _, path := range os.Args[1:] {
		kind, err := validateFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "validatetrace: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Printf("%s: ok (%s)\n", path, kind)
	}
	os.Exit(code)
}

func validateFile(path string) (kind string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	switch {
	case bytes.Contains(data, []byte(`"traceEvents"`)):
		return "chrome-trace", trace.ValidateChrome(data)
	case bytes.Contains(data, []byte(telemetry.FlightSchema)):
		return "flight-dump", telemetry.ValidateDumpJSON(data)
	case bytes.Contains(data, []byte(telemetry.RequestsSchema)):
		_, err := telemetry.ValidateRequestsJSON(data)
		return "requests-dump", err
	case bytes.Contains(data, []byte(trace.StoreSchema)):
		return "trace-store", trace.ValidateStoreJSON(data)
	case bytes.Contains(data, []byte(telemetry.TenantsSchema)):
		return "tenants-dump", telemetry.ValidateTenantsJSON(data)
	case bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("# HELP")):
		return "prometheus-exposition", telemetry.ValidateExposition(data)
	default:
		return "bench-grid", harness.ValidateGridJSON(data)
	}
}
