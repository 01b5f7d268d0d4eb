package stream

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/analysis"
	"github.com/gt-elba/milliscope/internal/core"
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
	// The two histograms: every fixed bucket, +Inf, sum and count, as many
	// samples as an empty histogram renders below its HELP and TYPE lines.
	var empty promfmt.Writer
	empty.Histogram("mscope_empty_seconds", "empty", new(promfmt.Histogram))
	want := strings.Count(empty.String(), "\n") - 2
	for _, fam := range []string{"mscope_detect_delay_seconds", "mscope_detect_grace_seconds"} {
		if samples[fam] != want {
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

// TestAlertRendering pins the one JSON form of a verdict, which /alerts
// and both modes of /api/diagnosis serve: a raised alert leads with its
// id, raise time and watermark and ends with its six wait keys; a batch
// window (an Alert with only Diagnosis and Missing set) has neither.
func TestAlertRendering(t *testing.T) {
	wd := core.WindowDiagnosis{
		Window:   analysis.Window{StartMicros: 1000, EndMicros: 51000, Peak: 420000},
		Pushback: analysis.PushbackResult{Grew: []string{"apache", "tomcat"}, CrossTier: true},
		Causes:   []analysis.Cause{{Name: "mysql disk", Correlation: 0.85, PeakInWindow: 100}},
		Kind:     core.CauseDiskIO,
		Node:     "mysql",
		Verdict:  "disk-io at mysql",
	}
	// keys lists a rendering's top-level keys in order.
	keys := func(a Alert) string {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(string(b)))
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			var value json.RawMessage
			if err := dec.Decode(&value); err != nil {
				t.Fatal(err)
			}
			out = append(out, k.(string))
		}
		return strings.Join(out, " ")
	}
	raised := Alert{ID: 3, Raised: time.Unix(1, 0).UTC(), WatermarkUS: 2_000_000, Diagnosis: wd,
		Missing: []string{"cjdbc_event"},
		Wait:    Wait{SliceUS: 319_000, GraceUS: 639_000, ResidenceUS: 319_000, CeilingUS: 2_000_000, HoldUS: 1, DelayUS: 986_000}}
	if got, want := keys(raised), "id raised watermark_us window_start_us window_end_us peak_rt_us kind node verdict "+
		"queues_grew cross_tier causes missing slice_us grace_us residence_us grace_ceiling_us hold_us delay_us"; got != want {
		t.Errorf("raised alert keys:\n got %s\nwant %s", got, want)
	}
	batch := Alert{Diagnosis: wd}
	if got, want := keys(batch), "window_start_us window_end_us peak_rt_us kind node verdict queues_grew cross_tier causes"; got != want {
		t.Errorf("batch window keys:\n got %s\nwant %s", got, want)
	}
	b, _ := json.Marshal(batch)
	if want := `"kind":"disk-io"`; !strings.Contains(string(b), want) {
		t.Errorf("batch window %s lacks %s", b, want)
	}
	if want := `"causes":[{"name":"mysql disk","correlation":0.85,"peak_in_window":100}]`; !strings.Contains(string(b), want) {
		t.Errorf("batch window %s lacks %s", b, want)
	}
}
