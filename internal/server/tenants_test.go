package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/sched"
	"realroots/internal/telemetry"
)

// tenantView is one tenant's accounting as both /debug/tenants and the
// rootd_tenant_* families report it. Seconds are compared only for
// being positive.
type tenantView struct {
	requests, solves, bitOpsPos, cacheHits, rejections, errors, retained int64
	secondsPos                                                           bool
}

func (v tenantView) String() string {
	return fmt.Sprintf("requests=%d solves=%d bitOps>0=%d hits=%d rejections=%d errors=%d retained=%d seconds>0=%v",
		v.requests, v.solves, v.bitOpsPos, v.cacheHits, v.rejections, v.errors, v.retained, v.secondsPos)
}

func getPath(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d err %v", url, resp.StatusCode, err)
	}
	return data
}

// tenantRows reads /debug/tenants as views, keyed by tenant.
func tenantRows(t *testing.T, base string) map[string]tenantView {
	t.Helper()
	data := getPath(t, base+"/debug/tenants?format=json")
	if err := telemetry.ValidateTenantsJSON(data); err != nil {
		t.Fatalf("/debug/tenants invalid: %v\n%s", err, data)
	}
	var d telemetry.TenantsDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.MaxTenants != 64 {
		t.Errorf("maxTenants = %d, want 64", d.MaxTenants)
	}
	out := map[string]tenantView{}
	for _, r := range d.Tenants {
		out[r.Tenant] = tenantView{
			requests: r.Requests, solves: r.Solves, bitOpsPos: sign(r.BitOps),
			cacheHits: r.CacheHits, rejections: r.Rejections, errors: r.Errors,
			retained: r.RetainedTraces, secondsPos: r.SolveSeconds > 0,
		}
	}
	return out
}

func sign(v int64) int64 {
	if v > 0 {
		return 1
	}
	return 0
}

var sampleLine = regexp.MustCompile(`^([a-z_]+)\{tenant="([^"]*)"\} (\S+)$`)

// tenantSamples reads the rootd_tenant_* families from /metrics as
// views (errors have no family and stay 0), plus the tenant label sets
// of the two per-tenant histograms.
func tenantSamples(t *testing.T, base string) (map[string]tenantView, map[string][]string) {
	t.Helper()
	data := getPath(t, base+"/metrics")
	if err := telemetry.ValidateExposition(data); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	views := map[string]tenantView{}
	labels := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		fam, tenant := m[1], m[2]
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		switch fam {
		case "rootd_request_seconds_count", "rootd_queue_wait_seconds_count":
			labels[fam] = append(labels[fam], tenant)
			continue
		}
		if !strings.HasPrefix(fam, "rootd_tenant_") {
			continue
		}
		v := views[tenant]
		n := int64(val)
		switch fam {
		case "rootd_tenant_requests_total":
			v.requests = n
		case "rootd_tenant_solves_total":
			v.solves = n
		case "rootd_tenant_bit_ops_total":
			v.bitOpsPos = sign(n)
		case "rootd_tenant_cache_hits_total":
			v.cacheHits = n
		case "rootd_tenant_rejections_total":
			v.rejections = n
		case "rootd_tenant_retained_traces_total":
			v.retained = n
		case "rootd_tenant_solve_seconds_total":
			v.secondsPos = val > 0
		default:
			t.Errorf("unexpected tenant family %s", fam)
		}
		views[tenant] = v
	}
	for _, l := range labels {
		sort.Strings(l)
	}
	return views, labels
}

func compareViews(t *testing.T, source string, got, want map[string]tenantView) {
	t.Helper()
	for tenant, w := range want {
		if g, ok := got[tenant]; !ok {
			t.Errorf("%s: no row for tenant %q", source, tenant)
		} else if g != w {
			t.Errorf("%s: tenant %q = {%v}, want {%v}", source, tenant, g, w)
		}
	}
	for tenant := range got {
		if _, ok := want[tenant]; !ok {
			t.Errorf("%s: unexpected tenant row %q = {%v}", source, tenant, got[tenant])
		}
	}
}

// postAs sends one solve with optional headers and returns its status
// and error code ("" on success). It is called from helper goroutines
// too, so it reports failures with t.Errorf and returns status 0.
func postAs(t *testing.T, base, body string, hdr map[string]string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Errorf("new request: %v", err)
		return 0, ""
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("POST: %v", err)
		return 0, ""
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Errorf("status %d with undecodable body %s", resp.StatusCode, data)
	}
	return resp.StatusCode, e.Error.Code
}

// TestTenantAccountingEquivalence drives one fixed request mix through
// Handler() — ok, cache hit, single-flight join, rate-limited,
// overloaded, budget-exceeded, forced trace, anonymous, and 40 distinct
// tenants — and pins every tenant's row in /debug/tenants and its
// rootd_tenant_* samples.
func TestTenantAccountingEquivalence(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	frozen := time.Unix(1000, 0)
	_, hs := newTestServer(t, Config{
		MaxConcurrent:     4,
		MaxInflightBitOps: 1, // a second concurrent admission oversubscribes
		RatePerSec:        1,
		Burst:             2, // with the clock frozen, two requests per tenant
		Now:               func() time.Time { return frozen },
		// Parallel solves stall in their pool tasks until the gate
		// opens; sequential solves run on the control lane and pass.
		Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) sched.Observer {
			return sched.ObserverFunc(func(e sched.Event) {
				if e.Kind != sched.TaskStart || e.Worker == sched.ControlLane {
					return
				}
				select {
				case <-gate:
				case <-ctx.Done():
				}
			})
		},
	})
	base := hs.URL
	poly := func(tenant string, c0 int, extra string) string {
		return fmt.Sprintf(`{"tenant":%q,"poly":{"coeffs":["-%d","0","1"]},"precision":32%s}`, tenant, c0, extra)
	}
	seq := `,"workers":1`
	expect := func(status int, code string, wantStatus int, wantCode string) {
		t.Helper()
		if status != wantStatus || code != wantCode {
			t.Fatalf("status %d code %q, want %d %q", status, code, wantStatus, wantCode)
		}
	}
	metricsHas := func(sample string) func() bool {
		return func() bool { return strings.Contains(string(getPath(t, base+"/metrics")), sample) }
	}

	// ok (acme leads x²-2), then a cache hit.
	st, code := postAs(t, base, poly("acme", 2, seq), nil)
	expect(st, code, 200, "")
	st, code = postAs(t, base, poly("acme", 2, seq), nil)
	expect(st, code, 200, "")

	// A parallel leader stalls in flight (its trace forced so that its
	// retention does not depend on measured efficiency); an identical
	// request joins it and a different one is refused as overloaded.
	leader := make(chan [2]any, 1)
	go func() {
		st, code := postAs(t, base, poly("lead", 3, `,"workers":2`), map[string]string{"X-Debug-Trace": "1"})
		leader <- [2]any{st, code}
	}()
	waitFor(t, metricsHas("rootd_active_solves 1\n"))
	joiner := make(chan [2]any, 1)
	go func() {
		st, code := postAs(t, base, poly("join", 3, `,"workers":2`), nil)
		joiner <- [2]any{st, code}
	}()
	waitFor(t, metricsHas(`rootd_cache_events_total{event="join"} 1`+"\n"))
	st, code = postAs(t, base, poly("over", 5, seq), nil)
	expect(st, code, http.StatusTooManyRequests, CodeOverloaded)
	release()
	for _, ch := range []chan [2]any{leader, joiner} {
		r := <-ch
		expect(r[0].(int), r[1].(string), 200, "")
	}

	// Rate limit: two hits, then the bucket is empty.
	for i := 0; i < 2; i++ {
		st, code = postAs(t, base, poly("limited", 2, seq), nil)
		expect(st, code, 200, "")
	}
	st, code = postAs(t, base, poly("limited", 2, seq), nil)
	expect(st, code, http.StatusTooManyRequests, CodeRateLimited)

	// Budget-exceeded (error trace retained), forced trace, anonymous.
	st, code = postAs(t, base, poly("budget", 7, seq+`,"maxBitOps":1`), nil)
	expect(st, code, http.StatusUnprocessableEntity, CodeBudget)
	st, code = postAs(t, base, poly("forced", 11, seq), map[string]string{"X-Debug-Trace": "1"})
	expect(st, code, 200, "")
	st, code = postAs(t, base, `{"poly":{"coeffs":["-2","0","1"]},"precision":32,"workers":1}`, nil)
	expect(st, code, 200, "")

	// 40 distinct tenants, each served from the cache.
	for i := 0; i < 40; i++ {
		st, code = postAs(t, base, poly(fmt.Sprintf("t%02d", i), 2, seq), nil)
		expect(st, code, 200, "")
	}

	want := map[string]tenantView{
		"acme":                    {requests: 2, solves: 1, bitOpsPos: 1, secondsPos: true, cacheHits: 1},
		"lead":                    {requests: 1, solves: 1, bitOpsPos: 1, secondsPos: true, retained: 1},
		"join":                    {requests: 1, cacheHits: 1},
		"over":                    {requests: 1, rejections: 1},
		"limited":                 {requests: 3, cacheHits: 2, rejections: 1},
		"budget":                  {requests: 1, solves: 1, bitOpsPos: 1, secondsPos: true, errors: 1, retained: 1},
		"forced":                  {requests: 1, solves: 1, bitOpsPos: 1, secondsPos: true, retained: 1},
		telemetry.AnonymousTenant: {requests: 1, cacheHits: 1},
	}
	for i := 0; i < 40; i++ {
		want[fmt.Sprintf("t%02d", i)] = tenantView{requests: 1, cacheHits: 1}
	}
	compareViews(t, "/debug/tenants", tenantRows(t, base), want)

	samples, _ := tenantSamples(t, base)
	for tenant, w := range want {
		w.errors = 0 // no exposition family carries errors
		want[tenant] = w
	}
	compareViews(t, "rootd_tenant_*", samples, want)
}

// TestTenantCapSharedByRowsAndHistograms pins one tenant cap of 64 for
// the /debug/tenants rows, the rootd_tenant_* families, and the
// per-tenant latency histograms: with 70 distinct tenants the first 64
// keep their own row and series, and the rest share "other" everywhere.
func TestTenantCapSharedByRowsAndHistograms(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	var named []string
	for i := 0; i < 70; i++ {
		tenant := fmt.Sprintf("c%02d", i)
		body := fmt.Sprintf(`{"tenant":%q,"poly":{"coeffs":["-2","0","1"]},"precision":32,"workers":1}`, tenant)
		if st, code := postAs(t, base, body, nil); st != 200 {
			t.Fatalf("%s: status %d %s", tenant, st, code)
		}
		if i < 64 {
			named = append(named, tenant)
		}
	}
	wantLabels := append(append([]string(nil), named...), telemetry.OverflowTenant)
	sort.Strings(wantLabels)

	rows := tenantRows(t, base)
	var rowNames []string
	for tenant := range rows {
		rowNames = append(rowNames, tenant)
	}
	sort.Strings(rowNames)
	if strings.Join(rowNames, ",") != strings.Join(wantLabels, ",") {
		t.Errorf("/debug/tenants rows = %v, want %v", rowNames, wantLabels)
	}
	if got := rows[telemetry.OverflowTenant].requests; got != 6 {
		t.Errorf("other row has %d requests, want 6", got)
	}

	samples, labels := tenantSamples(t, base)
	if got := samples[telemetry.OverflowTenant].requests; got != 6 {
		t.Errorf("rootd_tenant_requests_total{tenant=other} = %d, want 6", got)
	}
	if got := labels["rootd_request_seconds_count"]; strings.Join(got, ",") != strings.Join(wantLabels, ",") {
		t.Errorf("rootd_request_seconds tenants = %v, want %v", got, wantLabels)
	}
	// Only the leader (c00) waited in the admission queue; every later
	// request was a cache hit.
	if got := labels["rootd_queue_wait_seconds_count"]; strings.Join(got, ",") != "c00" {
		t.Errorf("rootd_queue_wait_seconds tenants = %v, want [c00]", got)
	}
}

// TestRateLimitedRequestRecorded checks that a request refused by the
// token bucket still gets a finished record: it shows in
// /debug/requests with outcome rate_limited, and adds exactly one
// request and one rejection to its tenant's row. (A tenant's first
// request always finds a full bucket, so the refused one is its second.)
func TestRateLimitedRequestRecorded(t *testing.T) {
	frozen := time.Unix(1000, 0)
	_, hs := newTestServer(t, Config{RatePerSec: 1, Burst: 1, Now: func() time.Time { return frozen }})
	base := hs.URL
	body := `{"tenant":"limited","poly":{"coeffs":["-3","0","1"]},"workers":1}`
	if st, code := postAs(t, base, body, nil); st != 200 {
		t.Fatalf("first request: status %d %s", st, code)
	}
	if got := tenantRows(t, base)["limited"]; got.requests != 1 || got.rejections != 0 {
		t.Fatalf("row after the admitted request = {%v}, want 1 request / 0 rejections", got)
	}
	st, code := postAs(t, base, body, map[string]string{"X-Request-Id": "rl-1"})
	if st != http.StatusTooManyRequests || code != CodeRateLimited {
		t.Fatalf("status %d code %q, want 429 %q", st, code, CodeRateLimited)
	}

	d, err := telemetry.ValidateRequestsJSON(getPath(t, base+"/debug/requests?format=json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Recent) != 2 || d.Recent[0].ID != "rl-1" || d.Recent[0].Outcome != CodeRateLimited || d.Recent[0].Tenant != "limited" {
		t.Fatalf("/debug/requests recent = %+v, want rl-1 rate_limited for tenant limited first", d.Recent)
	}
	if got := tenantRows(t, base)["limited"]; got.requests != 2 || got.rejections != 1 {
		t.Errorf("row after the refused request = {%v}, want 2 requests / 1 rejection", got)
	}
}

// TestRefusedBeforeDecodeRecorded: a request refused before its body is
// decoded (here a GET and an undecodable POST) still gets one finished
// record, so the tenant rows count every request the latency histogram
// observed: Σ rootd_request_seconds_count equals Σ rows' requests.
func TestRefusedBeforeDecodeRecorded(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL
	if st, code := postAs(t, base, `{"poly":`, nil); st != http.StatusBadRequest || code != CodeBadRequest {
		t.Fatalf("bad JSON: status %d code %q, want 400 %q", st, code, CodeBadRequest)
	}
	resp, err := http.Get(base + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET: status %d, want 400", resp.StatusCode)
	}
	if st, code := postAs(t, base, `{"poly":{"coeffs":["-2","0","1"]},"workers":1}`, nil); st != 200 {
		t.Fatalf("anonymous solve: status %d %s", st, code)
	}

	var observed int64
	for _, line := range strings.Split(string(getPath(t, base+"/metrics")), "\n") {
		if m := sampleLine.FindStringSubmatch(line); m != nil && m[1] == "rootd_request_seconds_count" {
			n, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			observed += n
		}
	}
	var rowed int64
	for _, v := range tenantRows(t, base) {
		rowed += v.requests
	}
	if observed != 3 || rowed != observed {
		t.Fatalf("Σ rootd_request_seconds_count = %d, Σ rows' requests = %d, want 3 and 3", observed, rowed)
	}
	if got := tenantRows(t, base)[telemetry.AnonymousTenant]; got.requests != 3 || got.errors != 2 {
		t.Errorf("anonymous row = {%v}, want 3 requests / 2 errors", got)
	}
}
