package serve

import (
	"fmt"
	"html"
	"net/http"
	"strings"
)

// handleIndex renders the self-contained landing page: warehouse
// contents, the slowest requests with flamegraph links, and a curl
// quickstart. No scripts, no external assets — the page works from a
// file:// save as well as over the wire.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p(`<!DOCTYPE html><html><head><meta charset="utf-8"><title>mscope serve</title><style>
body{font-family:monospace;margin:2em;max-width:70em}
table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}
th{background:#f4f4f4}
code{background:#f4f4f4;padding:1px 4px}
</style></head><body><h1>mscope serve</h1>`)

	p(`<h2>Warehouse</h2><table><tr><th>table</th><th>rows</th><th>columns</th></tr>`)
	for _, ti := range s.tableInfos() {
		cols := make([]string, len(ti.Columns))
		for i, c := range ti.Columns {
			cols[i] = c.Name
		}
		p(`<tr><td>%s</td><td>%d</td><td>%s</td></tr>`,
			html.EscapeString(ti.Name), ti.Rows, html.EscapeString(strings.Join(cols, ", ")))
	}
	p(`</table>`)

	if ordered, err := s.slowest(10); err == nil && len(ordered) > 0 {
		p(`<h2>Slowest requests</h2><table><tr><th>reqid</th><th>response</th><th>spans</th><th></th></tr>`)
		for _, tr := range ordered {
			id := html.EscapeString(tr.ReqID)
			p(`<tr><td>%s</td><td>%.3f ms</td><td>%d</td>`+
				`<td><a href="/flamegraph.svg?reqid=%s">flame</a> <a href="/api/trace/%s">json</a></td></tr>`,
				id, float64(tr.ResponseTime().Microseconds())/1000, len(tr.Spans), id, id)
		}
		p(`</table>`)
	}

	p(`<h2>Endpoints</h2><table><tr><th>path</th><th>what</th></tr>`)
	for _, e := range [][2]string{
		{"/api/tables", "warehouse catalogue: tables, row counts, column types"},
		{"/api/query?q=...", "run an MQL statement"},
		{"/api/window?table=&amp;value=&amp;fn=&amp;window=&amp;from=&amp;to=&amp;by=", "vectorized window aggregation with index-pruned time bounds"},
		{"/api/traces?limit=", fmt.Sprintf("reconstructed requests, slowest first (limit at most %d)", maxTraces)},
		{"/api/trace/{reqid}", "one request's waterfall/flamegraph data"},
		{"/flamegraph.svg?reqid=", "critical-path flamegraph (slowest request by default)"},
		{"/api/diagnosis", "the verdict timeline with full evidence"},
		{"/healthz", "readiness probes"},
		{"/metrics", "Prometheus exposition"},
	} {
		p(`<tr><td>%s</td><td>%s</td></tr>`, e[0], html.EscapeString(e[1]))
	}
	p(`</table>`)

	p(`<h2>Quickstart</h2><pre>curl 'http://HOST/api/query?q=SELECT+WINDOW+50ms+MAX(rt_us)+BY+ud+FROM+apache_event'
curl 'http://HOST/api/window?table=apache_event&amp;value=rt_us&amp;fn=p99&amp;window=50ms'
curl 'http://HOST/flamegraph.svg' &gt; flame.svg</pre>`)
	p(`</body></html>`)

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
