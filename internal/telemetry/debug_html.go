package telemetry

import (
	"fmt"
	"html/template"
)

// The HTML pages of the request tracker's three views, in the spirit of
// golang.org/x/net/trace: compact tables styled alike, so the
// inspectors read as one surface. Each page links its JSON dump.

const debugStyle = `<style>
body { font-family: sans-serif; font-size: 13px; }
table { border-collapse: collapse; margin-bottom: 1.5em; }
th, td { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.s { text-align: left; font-family: monospace; }
.err { color: #b00; }
</style>`

var debugFuncs = template.FuncMap{
	"secs": func(v float64) string {
		switch {
		case v == 0:
			return "-"
		case v < 0.001:
			return fmt.Sprintf("%.0fµs", v*1e6)
		case v < 1:
			return fmt.Sprintf("%.1fms", v*1e3)
		default:
			return fmt.Sprintf("%.3fs", v)
		}
	},
	"ratio": func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", v)
	},
	"pct":    func(v float64) string { return fmt.Sprintf("%.0f%%", v*100) },
	"fixed3": func(v float64) string { return fmt.Sprintf("%.3f", v) },
}

// requestsTmpl renders /debug/requests: in-flight requests followed by
// the most recently completed ones, newest first. Every row carries the
// numbers needed to debug a slow request in place — where the time
// went (queue vs solve), how the cost model fared (estimated vs
// measured bit-ops), how large the arithmetic grew, and the retained
// trace, if any.
var requestsTmpl = template.Must(template.New("requests").Funcs(debugFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/requests</title>` + debugStyle + `</head><body>
<h1>rootd requests</h1>
<p>{{len .Active}} active, {{len .Recent}} recent of {{.Total}} total (ring capacity {{.Capacity}}).
Cost ratio is measured/estimated bit-ops under the paper&#39;s schoolbook model.
<a href="?format=json">JSON</a></p>
{{define "rows"}}{{range .}}<tr>
<td class=s>{{.ID}}</td><td class=s>{{.Tenant}}</td><td class=s>{{.Kind}}</td>
<td>{{.Degree}}</td><td>{{.Mu}}</td><td class=s>{{.Method}}</td><td class=s>{{.Profile}}</td>
<td class=s>{{if .CacheOutcome}}{{.CacheOutcome}}{{else}}-{{end}}</td>
<td>{{.EstimatedBitOps}}</td><td>{{.ActualBitOps}}</td><td>{{ratio .CostRatio}}</td>
<td>{{.PeakOperandBits}}</td>
<td>{{secs .QueueWaitSecs}}</td><td>{{secs .SolveSecs}}</td><td>{{secs .TotalSecs}}</td>
<td class=s>{{if .Active}}{{.Phase}}{{else if eq .Outcome "ok"}}ok{{else}}<span class=err>{{.Outcome}}</span>{{end}}</td>
<td class=s>{{if .TraceSeq}}<a href="/debug/traces/{{.TraceSeq}}">{{.TraceSeq}}</a> {{.TraceReason}}{{else}}-{{end}}</td>
</tr>{{end}}{{end}}
<h2>Active</h2>
{{if .Active}}<table><tr><th>request</th><th>tenant</th><th>kind</th><th>deg</th><th>µ</th><th>method</th><th>profile</th><th>cache</th><th>est bit-ops</th><th>bit-ops</th><th>ratio</th><th>peak bits</th><th>queue</th><th>solve</th><th>total</th><th>phase</th><th>trace</th></tr>
{{template "rows" .Active}}</table>{{else}}<p>none</p>{{end}}
<h2>Recent (newest first)</h2>
{{if .Recent}}<table><tr><th>request</th><th>tenant</th><th>kind</th><th>deg</th><th>µ</th><th>method</th><th>profile</th><th>cache</th><th>est bit-ops</th><th>bit-ops</th><th>ratio</th><th>peak bits</th><th>queue</th><th>solve</th><th>total</th><th>outcome</th><th>trace</th></tr>
{{template "rows" .Recent}}</table>{{else}}<p>none</p>{{end}}
</body></html>
`))

// tracesTmpl renders /debug/traces: retention stats, then one row per
// retained trace newest-first, each linking its Chrome export download.
var tracesTmpl = template.Must(template.New("traces").Funcs(debugFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/traces</title>` + debugStyle + `</head><body>
<h1>rootd tail-sampled traces</h1>
<p>{{len .Traces}} retained among the last {{.Capacity}} requests ({{.Retained}} kept of {{.Seen}} solves seen, {{.Evicted}} evicted).
Retention reasons: {{range $k, $v := .ByReason}}{{$k}}={{$v}} {{end}}
<a href="?format=json">JSON</a></p>
{{if .Traces}}<table>
<tr><th>seq</th><th>request</th><th>tenant</th><th>outcome</th><th>reason</th><th>start</th><th>wall</th><th>workers</th><th>efficiency</th><th>serial</th><th>spans</th><th>dropped</th><th>export</th></tr>
{{range .Traces}}<tr>
<td>{{.Seq}}</td><td class=s>{{.RequestID}}</td><td class=s>{{.Tenant}}</td>
<td class=s>{{if eq .Outcome "ok"}}ok{{else}}<span class=err>{{.Outcome}}</span>{{end}}</td>
<td class=s>{{.Reason}}</td>
<td class=s>{{.Start.Format "15:04:05.000"}}</td>
<td>{{secs .WallSeconds}}</td><td>{{.Workers}}</td>
<td>{{if .Workers}}{{pct .Efficiency}}{{else}}-{{end}}</td><td>{{pct .SerialFraction}}</td>
<td>{{.Spans}}</td><td>{{.DroppedSpans}}</td>
<td class=s><a href="/debug/traces/{{.Seq}}">chrome json</a></td>
</tr>{{end}}</table>{{else}}<p>none retained yet</p>{{end}}
</body></html>
`))

// tenantsTmpl renders /debug/tenants: one row per tenant, sorted by ID,
// with the integral usage counters the "why is this tenant slow?"
// runbook starts from.
var tenantsTmpl = template.Must(template.New("tenants").Funcs(debugFuncs).Parse(`<!DOCTYPE html>
<html><head><title>/debug/tenants</title>` + debugStyle + `</head><body>
<h1>rootd tenant usage</h1>
<p>{{len .Tenants}} tenants (cap {{.MaxTenants}}; overflow folds into &quot;other&quot;, anonymous requests into &quot;anonymous&quot;).
<a href="?format=json">JSON</a></p>
{{if .Tenants}}<table>
<tr><th>tenant</th><th>requests</th><th>solves</th><th>solve s</th><th>bit-ops</th><th>cache hits</th><th>rejections</th><th>errors</th><th>retained traces</th></tr>
{{range .Tenants}}<tr>
<td class=s>{{.Tenant}}</td><td>{{.Requests}}</td><td>{{.Solves}}</td>
<td>{{fixed3 .SolveSeconds}}</td><td>{{.BitOps}}</td><td>{{.CacheHits}}</td>
<td>{{.Rejections}}</td><td>{{.Errors}}</td><td>{{.RetainedTraces}}</td>
</tr>{{end}}</table>{{else}}<p>none yet</p>{{end}}
</body></html>
`))
