package serve

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/stream"
)

// TestServeLivePipeline attaches the service to a running streaming
// engine: queries borrow the warehouse through the loader's WithDB gate
// while records are still being appended, so this test doubles as the
// -race proof that serving and loading never touch the DB concurrently.
func TestServeLivePipeline(t *testing.T) {
	spec, ok := core.ScenarioByName("dbio")
	if !ok {
		t.Fatal("no dbio scenario")
	}
	small := *spec
	small.Users = 50
	logDir := filepath.Join(t.TempDir(), "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg, err := small.Build(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}

	pipe, err := stream.New(stream.Config{LogDir: logDir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pipeline: pipe})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if s.ranking != nil || s.timeline != nil {
		t.Fatal("a live server keeps snapshot products; its warehouse grows between requests")
	}

	pipe.Start()
	// Hammer the query API from several goroutines while the loader is
	// (potentially still) appending.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/tables", nil))
				if rec.Code != 200 {
					t.Errorf("/api/tables during load: %d", rec.Code)
				}
			}
		}()
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("/healthz while running: %d", rec.Code)
	}

	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}

	// After the drain the loader is gone; WithDB falls through to a
	// direct call and the full query surface still answers.
	var out queryResult
	get(t, h, "/api/window?table=apache_event&value=rt_us&fn=max&window=50ms&time=ud", 200, &out)
	if len(out.Rows) == 0 {
		t.Error("window aggregation over the drained live warehouse returned no rows")
	}
	var diag diagTimeline
	get(t, h, "/api/diagnosis", 200, &diag)
	if diag.Source != "live" {
		t.Errorf("diagnosis source = %q, want live", diag.Source)
	}
	if len(diag.Entries) == 0 {
		t.Error("live diagnosis has no entries for the dbio trial")
	}
	// Every live entry says what it waited for.
	for _, e := range diag.Entries {
		if e.CeilingUS != stream.DefaultGrace.Microseconds() || e.GraceUS <= 0 || e.GraceUS > e.CeilingUS || e.ResidenceUS < int64(e.PeakUS) {
			t.Errorf("live entry %s: wait %+v with peak %.0f", e.Verdict, e.Wait, e.PeakUS)
		}
	}

	// Live-mode /metrics concatenates the engine's families with the
	// serve surface's own; the result must still lint as one exposition.
	metrics := s.MetricsText()
	if err := promfmt.Lint(metrics); err != nil {
		t.Errorf("live serve /metrics: %v", err)
	}
	for _, fam := range []string{"mscope_rows_total", "mscope_serve_queries_total"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("live serve /metrics missing %s", fam)
		}
	}

	// Readiness follows the detector: stopped engine means 503.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Errorf("/healthz after Stop: %d, want 503", rec.Code)
	}
}
