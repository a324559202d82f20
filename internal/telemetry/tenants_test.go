package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/trace"
)

// serve runs one request for tenant through tr and finishes it: led
// requests charge a solve of the given cost; cache is the cache outcome;
// rejected finishes it through Reject.
func serve(tr *RequestTracker, tenant, cache string, led bool, seconds float64, bitOps int64, outcome string, rejected bool) {
	r := tr.Start(RequestInfo{ID: "r", Tenant: tenant, Kind: "solve"})
	r.SetCacheOutcome(cache)
	if led {
		o := OutcomeOK
		if outcome != "ok" {
			o = OutcomeError
		}
		r.Led(LedSolve{Elapsed: time.Duration(seconds * float64(time.Second)), BitOps: bitOps, Outcome: o, Tracer: trace.New()})
	}
	if rejected {
		r.Reject(outcome)
	} else {
		r.Finish(outcome)
	}
}

func rowsByTenant(d TenantsDump) map[string]TenantRow {
	rows := map[string]TenantRow{}
	for _, r := range d.Tenants {
		rows[r.Tenant] = r
	}
	return rows
}

func TestTenantLedgerAccounting(t *testing.T) {
	tr := NewRequestTracker(8)
	serve(tr, "acme", "miss", true, 0.5, 1000, "ok", false)       // led, ok
	serve(tr, "acme", "hit", false, 0, 0, "ok", false)            // cache hit
	serve(tr, "acme", "join", false, 0, 0, "ok", false)           // single-flight join
	serve(tr, "acme", "", false, 0, 0, "rate_limited", true)      // rejection
	serve(tr, "acme", "miss", true, 0.25, 500, "internal", false) // failed solve: charged, error, retained
	serve(tr, "", "hit", false, 0, 0, "ok", false)                // anonymous

	d := tr.Tenants()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := rowsByTenant(d)
	acme := rows["acme"]
	if acme.Requests != 5 || acme.Solves != 2 || acme.SolveSeconds != 0.75 ||
		acme.BitOps != 1500 || acme.CacheHits != 2 || acme.Rejections != 1 ||
		acme.Errors != 1 || acme.RetainedTraces != 1 {
		t.Errorf("acme row = %+v", acme)
	}
	if rows[AnonymousTenant].Requests != 1 || rows[AnonymousTenant].CacheHits != 1 {
		t.Errorf("anonymous row = %+v, want 1 request / 1 cache hit", rows[AnonymousTenant])
	}

	// Round-trip through the JSON validator entry point.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTenantsJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestTenantLedgerOverflow pins the one tenant cap: the first
// MaxTenants named tenants get their own row and label value, later
// ones share OverflowTenant, and anonymous never counts against it.
func TestTenantLedgerOverflow(t *testing.T) {
	tr := NewRequestTracker(8)
	for i := 0; i < MaxTenants+2; i++ {
		serve(tr, fmt.Sprintf("t%02d", i), "hit", false, 0, 0, "ok", false)
	}
	serve(tr, "", "hit", false, 0, 0, "ok", false)    // anonymous does not count against the cap
	serve(tr, "t00", "hit", false, 0, 0, "ok", false) // existing row still resolves directly

	d := tr.Tenants()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.MaxTenants != MaxTenants {
		t.Errorf("maxTenants = %d, want %d", d.MaxTenants, MaxTenants)
	}
	rows := rowsByTenant(d)
	if len(rows) != MaxTenants+2 {
		t.Errorf("%d rows, want %d named + other + anonymous", len(rows), MaxTenants)
	}
	for tenant, want := range map[string]int64{"t00": 2, "t63": 1, OverflowTenant: 2, AnonymousTenant: 1} {
		if got := rows[tenant].Requests; got != want {
			t.Errorf("row %q = %d requests, want %d", tenant, got, want)
		}
	}
	for tenant, want := range map[string]string{
		"t05": "t05", "t64": OverflowTenant, "never-seen": OverflowTenant, "": AnonymousTenant,
	} {
		if got := tr.TenantLabel(tenant); got != want {
			t.Errorf("TenantLabel(%q) = %q, want %q", tenant, got, want)
		}
	}
}

func TestTenantLedgerNilSafe(t *testing.T) {
	var tr *RequestTracker
	if got := tr.TenantLabel("a"); got != "a" {
		t.Errorf("nil tracker label %q", got)
	}
	if got := tr.TenantLabel(""); got != AnonymousTenant {
		t.Errorf("nil tracker anonymous label %q", got)
	}
	d := tr.Tenants()
	if len(d.Tenants) != 0 {
		t.Errorf("nil tracker dumped rows: %+v", d.Tenants)
	}
	New(Config{}).Registry().RegisterTenantFamilies(nil) // no-op
}

// TestTenantLedgerConcurrent hammers row creation and folding from many
// goroutines while the rows are dumped and labels resolved (run with
// -race): no update may be lost when rows are created concurrently.
func TestTenantLedgerConcurrent(t *testing.T) {
	tr := NewRequestTracker(16)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tenant := fmt.Sprintf("t%d", i%16)
				tr.TenantLabel(tenant)
				serve(tr, tenant, "miss", true, 0.001, 10, "ok", false)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := tr.Tenants().Validate(); err != nil {
				t.Errorf("mid-write dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := tr.Tenants()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var requests, solves int64
	for _, r := range d.Tenants {
		requests += r.Requests
		solves += r.Solves
	}
	if want := int64(goroutines * perG); requests != want || solves != want {
		t.Errorf("requests/solves = %d/%d, want %d each (lost updates)", requests, solves, want)
	}
}

func TestRegisterTenantFamiliesExposition(t *testing.T) {
	tel := New(Config{})
	tr := tel.Requests()
	serve(tr, "acme", "miss", true, 0.25, 1234, "ok", false)
	serve(tr, "beta", "hit", false, 0, 0, "ok", false)
	tel.Registry().RegisterTenantFamilies(tr)

	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition with tenant families invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`rootd_tenant_requests_total{tenant="acme"} 1`,
		`rootd_tenant_bit_ops_total{tenant="acme"} 1234`,
		`rootd_tenant_solve_seconds_total{tenant="acme"} 0.25`,
		`rootd_tenant_cache_hits_total{tenant="beta"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Registering twice must not duplicate families (register is
	// idempotent by name).
	tel.Registry().RegisterTenantFamilies(tr)
	buf.Reset()
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "# TYPE rootd_tenant_requests_total"); got != 1 {
		t.Errorf("rootd_tenant_requests_total TYPE line appears %d times, want 1", got)
	}
}
