package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
)

// benchGet drives one request through the handler and fails the
// benchmark on a non-200 so a broken endpoint can't post a fast time.
func benchGet(b *testing.B, s *Server, path string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		b.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkQueryWindow measures the /api/window endpoint end to end —
// predicate pruning through the sorted time index plus the vectorized
// window aggregation — over the full-size dbio warehouse. bench/'s
// query-mix workload gates the latency (serve.window_*_ms_p50).
func BenchmarkQueryWindow(b *testing.B) {
	s := smokeServer(b)
	path := "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms"
	benchGet(b, s, path) // warm: surfaces handler errors before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, path)
	}
}

// BenchmarkQueryWindowPruned narrows the same aggregation to one 500ms
// slice via from/to predicates, so the gap between this and
// BenchmarkQueryWindow is the index-pruning win.
func BenchmarkQueryWindowPruned(b *testing.B) {
	s := smokeServer(b)
	var full struct {
		Rows [][]string `json:"rows"`
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms", nil))
	if rec.Code != 200 {
		b.Fatalf("probe: %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil || len(full.Rows) == 0 {
		b.Fatalf("probe: no windows (%v)", err)
	}
	start, err := strconv.ParseInt(full.Rows[0][0], 10, 64)
	if err != nil {
		b.Fatalf("bad window_start_us %q: %v", full.Rows[0][0], err)
	}
	path := "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms" +
		"&from=" + strconv.FormatInt(start, 10) +
		"&to=" + strconv.FormatInt(start+500_000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, path)
	}
}

// benchColdWarm measures one request that reads the whole warehouse: cold
// on a fresh Server per iteration, which computes it as every request did
// before snapshots kept their products, and warm on one Server that has
// answered it once.
func benchColdWarm(b *testing.B, path string) {
	b.Run("cold", func(b *testing.B) {
		s := smokeServer(b)
		benchGet(b, s, path) // surfaces handler errors before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, smokeServer(b), path)
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := smokeServer(b)
		benchGet(b, s, path)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, s, path)
		}
	})
}

// BenchmarkDiagnosis measures /api/diagnosis: cold runs core.Diagnose over
// every event and resource table, warm renders the kept timeline.
func BenchmarkDiagnosis(b *testing.B) { benchColdWarm(b, "/api/diagnosis") }

// BenchmarkTraces50 measures /api/traces?limit=50: cold ranks every
// request, warm takes the kept ranking's head; both look up the 50.
func BenchmarkTraces50(b *testing.B) { benchColdWarm(b, "/api/traces?limit=50") }

// BenchmarkFlamegraphRender measures /flamegraph.svg end to end: trace
// reconstruction across all four tiers, critical-path busy-interval
// subtraction, and SVG emission for the slowest request. The loop is warm:
// the snapshot was ranked by the first request, so an iteration is the
// lookup of the slowest request and the render.
func BenchmarkFlamegraphRender(b *testing.B) {
	s := smokeServer(b)
	benchGet(b, s, "/flamegraph.svg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, "/flamegraph.svg")
	}
}
