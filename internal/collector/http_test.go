package collector

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/stream"
)

// TestCrossSurfaceMetricsConformance holds the collector's and the
// agent's Prometheus text to the shared exposition discipline:
// mscope_-prefixed families, one HELP and one TYPE line each, headers
// before samples, no interleaving. The collector's text (the engine's
// families, then its own) is what `mscope collector` composes its one
// /metrics from, with serve's families under --serve; cmd/mscope's
// TestOneSurfacePerProcess lints that composition on both listeners.
func TestCrossSurfaceMetricsConformance(t *testing.T) {
	dir := stagedDBIO(t)
	col := startCollector(t, Config{Engine: stream.Config{}})
	agent := startAgent(t, col, dir, "apache", nil)
	waitFor(t, 10*time.Second, "agent connected", func() bool {
		return agent.Status().Connected
	})

	for _, surface := range []struct {
		name string
		text string
	}{
		{"collector", col.MetricsText()},
		{"agent", agent.MetricsText()},
	} {
		if err := promfmt.Lint(surface.text); err != nil {
			t.Errorf("%s surface: %v", surface.name, err)
		}
		// Each surface must carry its own namespaced families so a fleet
		// scrape job can keep them apart by name alone.
		want := "mscope_" + surface.name + "_"
		if !strings.Contains(surface.text, want) {
			t.Errorf("%s surface exposes no %s* families", surface.name, want)
		}
	}
	// The collector's text must include the engine families too: one
	// process, one exposition.
	if text := col.MetricsText(); !strings.Contains(text, "mscope_rows_total") {
		t.Error("collector /metrics is missing the engine's families")
	}

	drainAll(t, col, []*agentd.Agent{agent})

	// Surfaces must still lint after a clean drain (counters final, no
	// sources open) — degenerate sample sets are the usual lint trap.
	if err := promfmt.Lint(col.MetricsText()); err != nil {
		t.Errorf("collector surface after drain: %v", err)
	}
	if err := promfmt.Lint(agent.MetricsText()); err != nil {
		t.Errorf("agent surface after drain: %v", err)
	}
}

// TestHealthzSurfaces: the agent's /healthz holds 200 while connected to
// its collector and the collector's while listening with a running
// engine; both flip to 503 after a drain, and the body names each probe
// so an operator can see which leg failed.
func TestHealthzSurfaces(t *testing.T) {
	dir := stagedDBIO(t)
	col := startCollector(t, Config{Engine: stream.Config{}})
	agent := startAgent(t, col, dir, "tomcat", nil)
	waitFor(t, 10*time.Second, "agent connected", func() bool {
		return agent.Status().Connected
	})

	colH, agentH := col.Handler(), agent.Handler()
	codeOf := func(h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}

	if c := codeOf(colH); c != 200 {
		t.Errorf("collector /healthz while serving: %d, want 200", c)
	}
	if c := codeOf(agentH); c != 200 {
		t.Errorf("agent /healthz while connected: %d, want 200", c)
	}

	drainAll(t, col, []*agentd.Agent{agent})

	if c := codeOf(colH); c != 503 {
		t.Errorf("collector /healthz after drain: %d, want 503", c)
	}
	if c := codeOf(agentH); c != 503 {
		t.Errorf("agent /healthz after drain: %d, want 503", c)
	}

	rec := httptest.NewRecorder()
	agentH.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	body := rec.Body.String()
	for _, probe := range []string{`"wire"`, `"running"`, `"ok"`} {
		if !strings.Contains(body, probe) {
			t.Errorf("agent /healthz body missing %s: %s", probe, body)
		}
	}
	rec = httptest.NewRecorder()
	colH.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	body = rec.Body.String()
	for _, probe := range []string{`"wire"`, `"engine"`, `"ok"`} {
		if !strings.Contains(body, probe) {
			t.Errorf("collector /healthz body missing %s: %s", probe, body)
		}
	}
}
