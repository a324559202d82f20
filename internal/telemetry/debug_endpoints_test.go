package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"realroots/internal/trace"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugTracesAndTenantsEndpoints(t *testing.T) {
	tel := New(Config{})

	// One request retains an error trace and is accounted to its tenant.
	tr := trace.New()
	tr.SetRequestID("req-1")
	l := tr.Lane(trace.ControlLane, "control")
	l.Begin("solve", trace.CatPhase)
	l.End()
	leadAndFinish(tel.Requests(), "req-1", "acme", tr)

	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// JSON dump validates and carries the retained trace.
	code, body := getBody(t, base+"/debug/traces?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces json status %d", code)
	}
	if err := trace.ValidateStoreJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/traces dump invalid: %v", err)
	}
	if !strings.Contains(body, "req-1") {
		t.Error("/debug/traces dump missing retained trace")
	}

	// HTML index renders with a link to the Chrome export.
	code, body = getBody(t, base+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, "req-1") || !strings.Contains(body, `href="/debug/traces/1"`) {
		t.Fatalf("/debug/traces html: status %d, body %q", code, body)
	}

	// The request's row names its retained trace.
	code, body = getBody(t, base+"/debug/requests?format=json")
	if code != http.StatusOK || !strings.Contains(body, `"traceSeq": 1`) {
		t.Fatalf("/debug/requests: status %d, row does not name trace 1: %s", code, body)
	}

	// Per-trace Chrome export download.
	code, body = getBody(t, base+"/debug/traces/1")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/1 status %d", code)
	}
	if err := trace.ValidateChrome([]byte(body)); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if code, _ := getBody(t, base+"/debug/traces/999"); code != http.StatusNotFound {
		t.Errorf("absent seq status %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/debug/traces/nonsense"); code != http.StatusBadRequest {
		t.Errorf("bad seq status %d, want 400", code)
	}

	// Tenants dump, JSON and HTML.
	code, body = getBody(t, base+"/debug/tenants?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/tenants json status %d", code)
	}
	if err := ValidateTenantsJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/tenants dump invalid: %v", err)
	}
	code, body = getBody(t, base+"/debug/tenants")
	if code != http.StatusOK || !strings.Contains(body, "acme") {
		t.Fatalf("/debug/tenants html: status %d", code)
	}
}
