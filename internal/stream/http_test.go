package stream

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/promfmt"
)

// drainedPipeline runs the live pipeline to completion over the shared
// staged trial (static files: Start then Stop is one full drain).
func drainedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(Config{LogDir: stagedDBIO(t)})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMetricsExpositionConformance checks the Prometheus text format
// contract the scrapers rely on: every metric family gets exactly one
// # HELP and one # TYPE line, both before any of its samples — including
// the per-source families, whose samples must be grouped by family rather
// than interleaved per source.
func TestMetricsExpositionConformance(t *testing.T) {
	p := drainedPipeline(t)
	text := p.MetricsText()

	// The shared linter holds every surface to the same discipline; the
	// hand-rolled checks below pin the specific family set.
	if err := promfmt.Lint(text); err != nil {
		t.Errorf("promfmt.Lint: %v", err)
	}

	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	samples := map[string]int{}
	histograms := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name := strings.Fields(line)[2]
			helpSeen[name]++
			if samples[name] > 0 {
				t.Errorf("HELP for %s appears after its samples", name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			name := strings.Fields(line)[2]
			typeSeen[name]++
			histograms[name] = strings.Fields(line)[3] == "histogram"
			if samples[name] > 0 {
				t.Errorf("TYPE for %s appears after its samples", name)
			}
		case strings.HasPrefix(line, "#"), line == "":
			// other comments are fine anywhere
		default:
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			// A histogram's samples are its _bucket, _sum and _count series.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); histograms[base] {
					name = base
				}
			}
			if helpSeen[name] == 0 || typeSeen[name] == 0 {
				t.Errorf("sample for %s before its HELP/TYPE header: %q", name, line)
			}
			samples[name]++
		}
	}
	for name, n := range helpSeen {
		if n != 1 {
			t.Errorf("%s has %d HELP lines, want exactly 1", name, n)
		}
		if typeSeen[name] != 1 {
			t.Errorf("%s has %d TYPE lines, want exactly 1", name, typeSeen[name])
		}
		if samples[name] == 0 {
			t.Errorf("%s declared but has no samples", name)
		}
	}
	// The per-source families — including the two added for quarantine and
	// parse failures — must expose one sample per tailed source.
	nSources := len(p.Status().Sources)
	if nSources == 0 {
		t.Fatal("no sources tailed")
	}
	for _, fam := range []string{
		"mscope_source_offset_bytes",
		"mscope_source_rows",
		"mscope_source_quarantined_total",
		"mscope_source_parse_errors_total",
	} {
		if samples[fam] != nSources {
			t.Errorf("%s has %d samples, want one per source (%d)", fam, samples[fam], nSources)
		}
	}
	// The fidelity and backpressure families are exported unconditionally —
	// zero-valued when degradation is off — so scrapers see a stable set.
	for _, fam := range []string{
		"mscope_backpressure_stalls_total",
		"mscope_detector_evidence_errors_total",
		"mscope_fidelity_state",
		"mscope_fidelity_transitions_total",
		"mscope_rows_rolled_up_total",
		"mscope_rows_promoted_total",
		"mscope_rows_shed_total",
		"mscope_ring_evicted_total",
		"mscope_ring_rows",
		"mscope_rollup_rows",
	} {
		if samples[fam] != 1 {
			t.Errorf("%s has %d samples, want exactly 1", fam, samples[fam])
		}
	}
	// The two histograms: every fixed bucket, +Inf, sum and count.
	for _, fam := range []string{"mscope_detect_delay_seconds", "mscope_detect_grace_seconds"} {
		if want := len(promfmt.HistogramBounds) + 3; samples[fam] != want {
			t.Errorf("%s has %d samples, want %d", fam, samples[fam], want)
		}
	}
}

// TestHealthzReadiness: the pipeline's /healthz holds 200 while the
// engine runs and flips to 503 once it stops — the probe orchestrators
// poll before routing traffic at the serve layer.
func TestHealthzReadiness(t *testing.T) {
	p, err := New(Config{LogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Handler()
	get := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if code := get(); code != 503 {
		t.Errorf("/healthz before Start: %d, want 503", code)
	}
	p.Start()
	if code := get(); code != 200 {
		t.Errorf("/healthz while running: %d, want 200", code)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if code := get(); code != 503 {
		t.Errorf("/healthz after Stop: %d, want 503", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"probes"`) || !strings.Contains(body, `"detector"`) {
		t.Errorf("/healthz body lacks probe detail: %s", body)
	}
}

// TestDebugHandlerSeparation checks the opt-in debug surface: pprof and
// expvar are served by DebugHandler, and are NOT reachable through the
// metrics/status handler, so --debug-addr is the only way to expose them.
func TestDebugHandlerSeparation(t *testing.T) {
	p := drainedPipeline(t)
	dbg := DebugHandler(p)

	rec := httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, v := range []string{"mscope_live_rows", "mscope_live_alerts", "mscope_live_sources"} {
		if !strings.Contains(body, v) {
			t.Errorf("/debug/vars missing %s", v)
		}
	}

	rec = httptest.NewRecorder()
	dbg.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ index: code %d", rec.Code)
	}

	// The metrics handler must not expose the debug surface.
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		rec = httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code == 200 {
			t.Errorf("metrics handler serves %s; debug endpoints must stay on their own listener", path)
		}
	}
}
