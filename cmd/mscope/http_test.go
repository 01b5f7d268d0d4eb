package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/promfmt"
)

// answer returns h's status and body for GET path.
func answer(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// families lists the metric families an exposition declares, in order.
func families(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, strings.Fields(f)[0])
		}
	}
	return strings.Join(out, " ")
}

// TestOneSurfacePerProcess builds the two listener handlers of `mscope
// collector --http … --serve …`: both answer /metrics with the same
// families — the engine's, the collector's and the observability API's —
// as one exposition that lints, and /healthz with the same probes; and
// neither exposes the debug surface, which only --debug-addr serves.
func TestOneSurfacePerProcess(t *testing.T) {
	col, err := collector.New(collector.Config{Network: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	defer col.Stop()
	fs := flag.NewFlagSet("collector", flag.ContinueOnError)
	e := addEngineFlags(fs)
	if err := fs.Parse([]string{"--http", "127.0.0.1:0", "--serve", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	httpH, serveH, err := e.handlers(col.Pipeline(), col.Handler(), col.MetricsText, "/status", "/alerts", "/collector")
	if err != nil {
		t.Fatal(err)
	}
	if serveH == nil {
		t.Fatal("--serve built no handler")
	}
	var fams, probes []string
	for _, h := range []http.Handler{httpH, serveH} {
		code, text := answer(h, "/metrics")
		if code != 200 {
			t.Fatalf("/metrics: %d", code)
		}
		if err := promfmt.Lint(text); err != nil {
			t.Error(err)
		}
		fams = append(fams, families(text))
		_, health := answer(h, "/healthz")
		probes = append(probes, health)
		for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
			if code, _ := answer(h, path); code == 200 {
				t.Errorf("a listener serves %s; the debug surface stays on --debug-addr", path)
			}
		}
	}
	if fams[0] != fams[1] {
		t.Errorf("the two listeners export different families:\n--http  %s\n--serve %s", fams[0], fams[1])
	}
	for _, fam := range []string{"mscope_rows_total", "mscope_collector_agents", "mscope_serve_queries_total", "mscope_db_index_bytes"} {
		if !strings.Contains(" "+fams[0]+" ", " "+fam+" ") {
			t.Errorf("/metrics lacks %s: %s", fam, fams[0])
		}
	}
	if probes[0] != probes[1] || !strings.Contains(probes[0], `"wire"`) || !strings.Contains(probes[0], `"engine"`) {
		t.Errorf("the two listeners' /healthz differ or lack the collector's probes:\n%s\n%s", probes[0], probes[1])
	}
	// The observability API answers what the collector's surface does not claim.
	if code, _ := answer(serveH, "/api/tables"); code != 200 {
		t.Errorf("--serve /api/tables: %d", code)
	}
	if code, _ := answer(httpH, "/api/tables"); code != 404 {
		t.Errorf("--http /api/tables: %d, want 404 (no query API on the scrape port)", code)
	}
}

// TestDebugHandlerSeparation: --debug-addr serves pprof and the Go
// runtime's expvars, and republishes none of the engine's /status.
func TestDebugHandlerSeparation(t *testing.T) {
	dbg := debugHandler()
	code, body := answer(dbg, "/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	for _, v := range []string{`"memstats"`, `"cmdline"`} {
		if !strings.Contains(body, v) {
			t.Errorf("/debug/vars lacks %s", v)
		}
	}
	if strings.Contains(body, "mscope_live_") {
		t.Errorf("/debug/vars republishes the engine's /status: %s", body)
	}
	if code, body := answer(dbg, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index: code %d", code)
	}
}
