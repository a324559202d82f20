package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Per-tenant usage rows. rootd labels its latency histograms by tenant;
// the rows are the complementary integral view — who has consumed how
// much arithmetic, how often they hit the cache, how often admission
// pushed back — folded from each request record when it finishes. One
// cap and one label function serve the rows, the rootd_tenant_*
// families and the per-tenant histograms, so all three name the same
// tenants.

// TenantsSchema versions the /debug/tenants JSON dump.
const TenantsSchema = "realroots/tenants/v1"

// MaxTenants bounds the named tenant rows (and tenant label values);
// tenants beyond the cap are folded into the OverflowTenant row so a
// tenant-ID cardinality attack cannot grow the rows or the exposition.
const MaxTenants = 64

// Row names for the two synthetic tenants.
const (
	// AnonymousTenant accounts requests that carried no tenant ID.
	AnonymousTenant = "anonymous"
	// OverflowTenant accounts tenants beyond the cap.
	OverflowTenant = "other"
)

// TenantRow is one tenant's accumulated usage.
type TenantRow struct {
	Tenant string `json:"tenant"`
	// Requests counts every admitted-or-not request attributed to the
	// tenant (the denominator for the rejection rate).
	Requests int64 `json:"requests"`
	// Solves counts solves the tenant actually ran (cache misses where
	// this tenant was the single-flight leader), failed ones included.
	Solves int64 `json:"solves"`
	// SolveSeconds is the summed wall time of those solves.
	SolveSeconds float64 `json:"solveSeconds"`
	// BitOps is the summed measured bit-operation cost of those solves.
	BitOps int64 `json:"bitOps"`
	// CacheHits counts requests served from the result cache (including
	// single-flight joins).
	CacheHits int64 `json:"cacheHits"`
	// Rejections counts requests refused by admission control (rate
	// limit, overload, queue full, draining).
	Rejections int64 `json:"rejections"`
	// Errors counts requests that failed for non-admission reasons.
	Errors int64 `json:"errors"`
	// RetainedTraces counts the tenant's solves the tail sampler kept.
	RetainedTraces int64 `json:"retainedTraces"`
}

// TenantLabel returns the row name, and label value, under which
// tenant is accounted: AnonymousTenant for "", OverflowTenant once
// MaxTenants named rows exist, else tenant itself (claiming its row).
// A nil tracker applies no cap.
func (t *RequestTracker) TenantLabel(tenant string) string {
	if tenant == "" {
		return AnonymousTenant
	}
	if t == nil {
		return tenant
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowLocked(tenant).Tenant
}

// rowLocked returns tenant's row, creating it on first use. The
// caller holds t.mu.
func (t *RequestTracker) rowLocked(tenant string) *TenantRow {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if row := t.tenants[tenant]; row != nil {
		return row
	}
	if tenant != AnonymousTenant && tenant != OverflowTenant {
		if t.named >= MaxTenants {
			return t.rowLocked(OverflowTenant)
		}
		t.named++
	}
	row := &TenantRow{Tenant: tenant}
	t.tenants[tenant] = row
	return row
}

// foldLocked adds one finished request record to its tenant's row. The
// caller holds t.mu.
func (t *RequestTracker) foldLocked(rec *record) {
	row := t.rowLocked(rec.snap.Tenant)
	row.Requests++
	if rec.led {
		row.Solves++
		row.SolveSeconds += rec.snap.SolveSecs
		row.BitOps += rec.snap.ActualBitOps
	}
	switch {
	case rec.rejected:
		row.Rejections++
	case rec.snap.Outcome != "ok":
		row.Errors++
	case rec.snap.CacheOutcome == "hit" || rec.snap.CacheOutcome == "join":
		row.CacheHits++
	}
	if rec.snap.TraceSeq != 0 {
		row.RetainedTraces++
	}
}

// tenantRows snapshots the rows sorted by tenant name.
func (t *RequestTracker) tenantRows() []TenantRow {
	t.mu.Lock()
	rows := make([]TenantRow, 0, len(t.tenants))
	for _, row := range t.tenants {
		rows = append(rows, *row)
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })
	return rows
}

// TenantsDump is the schema-versioned JSON served at /debug/tenants.
type TenantsDump struct {
	Schema     string      `json:"schema"`
	MaxTenants int         `json:"maxTenants"`
	Tenants    []TenantRow `json:"tenants"`
}

// Tenants snapshots the tenant rows, sorted by tenant ID.
func (t *RequestTracker) Tenants() TenantsDump {
	d := TenantsDump{Schema: TenantsSchema, MaxTenants: MaxTenants, Tenants: []TenantRow{}}
	if t != nil {
		d.Tenants = t.tenantRows()
	}
	return d
}

// Validate checks the dump's structural invariants: schema string,
// rows sorted and unique, non-negative counters, and cache hits +
// rejections not exceeding the request count.
func (d TenantsDump) Validate() error {
	if d.Schema != TenantsSchema {
		return fmt.Errorf("telemetry: tenants dump schema %q, want %q", d.Schema, TenantsSchema)
	}
	if d.MaxTenants <= 0 {
		return fmt.Errorf("telemetry: tenants dump maxTenants %d not positive", d.MaxTenants)
	}
	for i, r := range d.Tenants {
		if r.Tenant == "" {
			return fmt.Errorf("telemetry: tenant row %d has empty tenant ID", i)
		}
		if i > 0 && d.Tenants[i-1].Tenant >= r.Tenant {
			return fmt.Errorf("telemetry: tenant rows not sorted/unique at %q", r.Tenant)
		}
		if r.Requests < 0 || r.Solves < 0 || r.BitOps < 0 || r.CacheHits < 0 ||
			r.Rejections < 0 || r.Errors < 0 || r.RetainedTraces < 0 || r.SolveSeconds < 0 {
			return fmt.Errorf("telemetry: tenant %q has a negative counter", r.Tenant)
		}
		if r.CacheHits+r.Rejections > r.Requests {
			return fmt.Errorf("telemetry: tenant %q accounts %d cache hits + %d rejections for only %d requests",
				r.Tenant, r.CacheHits, r.Rejections, r.Requests)
		}
	}
	return nil
}

// ValidateTenantsJSON parses data as a tenants dump and validates it.
// It is the cmd/validatetrace and CI entry point.
func ValidateTenantsJSON(data []byte) error {
	var d TenantsDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("telemetry: invalid tenants JSON: %w", err)
	}
	return d.Validate()
}

// RegisterTenantFamilies registers the rootd_tenant_* exposition
// families, each a counter over the tenant label reading the tracker's
// rows at scrape time. Registering again is a no-op.
func (g *Registry) RegisterTenantFamilies(t *RequestTracker) {
	if g == nil || t == nil {
		return
	}
	intFam := func(name, help string, get func(*TenantRow) int64) {
		g.families.register(name, help, "counter", t, func(e *expoWriter) {
			for _, row := range t.tenantRows() {
				e.sampleInt(name, get(&row), "tenant", row.Tenant)
			}
		})
	}
	intFam("rootd_tenant_requests_total", "Requests received per tenant.",
		func(r *TenantRow) int64 { return r.Requests })
	intFam("rootd_tenant_solves_total", "Solves led per tenant (cache misses).",
		func(r *TenantRow) int64 { return r.Solves })
	intFam("rootd_tenant_bit_ops_total", "Measured solve bit operations per tenant.",
		func(r *TenantRow) int64 { return r.BitOps })
	intFam("rootd_tenant_cache_hits_total", "Requests served from the result cache per tenant.",
		func(r *TenantRow) int64 { return r.CacheHits })
	intFam("rootd_tenant_rejections_total", "Requests refused by admission control per tenant.",
		func(r *TenantRow) int64 { return r.Rejections })
	intFam("rootd_tenant_retained_traces_total", "Solves retained by the tail sampler per tenant.",
		func(r *TenantRow) int64 { return r.RetainedTraces })
	g.families.register("rootd_tenant_solve_seconds_total",
		"Summed solve wall seconds per tenant.", "counter", t, func(e *expoWriter) {
			for _, row := range t.tenantRows() {
				e.sampleFloat("rootd_tenant_solve_seconds_total", row.SolveSeconds, "tenant", row.Tenant)
			}
		})
}
