package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/transform"
)

// scenarioWarehouse runs one catalogue scenario's trial and ingests its
// logs: the warehouse `mscope serve --db` would attach. users shrinks
// the workload for sweep speed; 0 keeps the spec's own size.
func scenarioWarehouse(t testing.TB, name string, users int) *mscopedb.DB {
	t.Helper()
	db := mscopedb.Open()
	if _, err := transform.IngestDir(db, scenarioLogs(t, name, users), t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	return db
}

// scenarioLogs runs one catalogue scenario's trial and returns the
// directory holding the logs an ingest would read.
func scenarioLogs(t testing.TB, name string, users int) string {
	t.Helper()
	spec, ok := core.ScenarioByName(name)
	if !ok {
		t.Fatalf("no catalogue scenario %q", name)
	}
	small := *spec
	if users > 0 {
		small.Users = users
	}
	work := t.TempDir()
	logDir := filepath.Join(work, "logs")
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
	srcDir := logDir
	if len(small.DeleteTiers) > 0 {
		srcDir = filepath.Join(work, "corrupted")
		fcfg := faults.Config{
			Seed:        small.Seed,
			Kinds:       []faults.Kind{faults.KindDeleteTier},
			DeleteTiers: small.DeleteTiers,
		}
		if _, err := faults.Corrupt(logDir, srcDir, fcfg); err != nil {
			t.Fatal(err)
		}
	}
	return srcDir
}

// The smoke suite shares one full-size dbio warehouse.
var (
	smokeOnce sync.Once
	smokeDB   *mscopedb.DB
)

func smokeServer(t testing.TB) *Server {
	t.Helper()
	smokeOnce.Do(func() {
		smokeDB = scenarioWarehouse(t, "dbio", 0)
	})
	if smokeDB == nil {
		t.Fatal("smoke warehouse failed to build in an earlier test")
	}
	s, err := New(Config{DB: smokeDB})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get hits the handler and decodes a JSON body into out (skipped when
// out is nil), failing the test on an unexpected status.
func get(t *testing.T, h http.Handler, path string, want int, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != want {
		t.Fatalf("GET %s: %d (want %d): %s", path, rec.Code, want, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rec
}

// TestServeSmoke drives every endpoint against a real scenario
// warehouse: the `make serve-smoke` gate, run under -race.
func TestServeSmoke(t *testing.T) {
	h := smokeServer(t).Handler()

	var tables []tableInfo
	get(t, h, "/api/tables", 200, &tables)
	names := map[string]bool{}
	for _, ti := range tables {
		names[ti.Name] = true
		if ti.Rows < 0 || len(ti.Columns) == 0 {
			t.Errorf("table %s: %d rows, %d columns", ti.Name, ti.Rows, len(ti.Columns))
		}
	}
	if !names["apache_event"] || !names["mysql_event"] {
		t.Fatalf("catalogue lacks event tables: %v", names)
	}

	var q queryResult
	get(t, h, "/api/query?q="+
		"SELECT+WINDOW+50ms+MAX(rt_us)+BY+ud+FROM+apache_event", 200, &q)
	if len(q.Rows) == 0 {
		t.Fatal("windowed MQL query returned no rows")
	}

	// Window aggregation, then the same narrowed by an index-pruned time
	// range covering only the first window.
	var full queryResult
	get(t, h, "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms&time=ud", 200, &full)
	if len(full.Rows) == 0 {
		t.Fatal("window aggregation returned no rows")
	}
	start, err := strconv.ParseInt(full.Rows[0][0], 10, 64)
	if err != nil {
		t.Fatalf("first window start %q: %v", full.Rows[0][0], err)
	}
	var narrowed queryResult
	get(t, h, "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms&time=ud"+
		"&from="+strconv.FormatInt(start, 10)+"&to="+strconv.FormatInt(start+50_000, 10), 200, &narrowed)
	if len(narrowed.Rows) == 0 || len(narrowed.Rows) >= len(full.Rows) {
		t.Errorf("time-bounded window returned %d rows (full scan: %d); pruning is not narrowing",
			len(narrowed.Rows), len(full.Rows))
	}

	var traces []traceSummary
	get(t, h, "/api/traces?limit=5", 200, &traces)
	if len(traces) == 0 {
		t.Fatal("no traces reconstructed")
	}
	if len(traces) > 5 {
		t.Errorf("limit=5 returned %d traces", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].RTUS > traces[i-1].RTUS {
			t.Errorf("traces not slowest-first: %d before %d", traces[i-1].RTUS, traces[i].RTUS)
		}
	}

	var flame struct {
		ReqID   string `json:"reqid"`
		TotalUS int64  `json:"total_us"`
		Frames  []struct {
			Tier   string `json:"tier"`
			SelfUS int64  `json:"self_us"`
		} `json:"frames"`
	}
	get(t, h, "/api/trace/"+traces[0].ReqID, 200, &flame)
	if flame.ReqID != traces[0].ReqID || flame.TotalUS <= 0 || len(flame.Frames) == 0 {
		t.Fatalf("flame for %s: %+v", traces[0].ReqID, flame)
	}
	// Default flamegraph = slowest request, same data.
	var slowest struct {
		ReqID string `json:"reqid"`
	}
	get(t, h, "/api/flamegraph", 200, &slowest)
	if slowest.ReqID != traces[0].ReqID {
		t.Errorf("/api/flamegraph default = %s, want slowest %s", slowest.ReqID, traces[0].ReqID)
	}

	svg := get(t, h, "/flamegraph.svg", 200, nil)
	if ct := svg.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("flamegraph.svg Content-Type = %q", ct)
	}
	body := svg.Body.String()
	if !strings.HasPrefix(body, "<svg") || !strings.Contains(body, "apache") {
		t.Errorf("flamegraph.svg body does not look like a tier flame: %.120s", body)
	}

	var diag diagTimeline
	raw := get(t, h, "/api/diagnosis", 200, &diag).Body.String()
	if diag.Source != "batch" {
		t.Errorf("diagnosis source = %q, want batch", diag.Source)
	}
	// A batch verdict waited for nothing: the live entries' wait fields
	// must not appear (bench/'s query-mix compares these bytes).
	if strings.Contains(raw, "grace") || strings.Contains(raw, "residence_us") || strings.Contains(raw, "delay_us") {
		t.Errorf("snapshot-mode /api/diagnosis carries live wait fields: %s", raw)
	}
	if len(diag.Entries) == 0 {
		t.Fatal("dbio scenario produced no diagnosis entries")
	}
	foundDisk := false
	for _, e := range diag.Entries {
		if e.Kind == "disk-io" && e.Node == "mysql" {
			foundDisk = true
			if len(e.Causes) == 0 {
				t.Error("disk-io verdict carries no ranked causes (evidence missing)")
			}
		}
	}
	if !foundDisk {
		t.Errorf("dbio diagnosis lacks the disk-io@mysql verdict: %+v", diag.Entries)
	}

	get(t, h, "/healthz", 200, nil)

	metrics := get(t, h, "/metrics", 200, nil).Body.String()
	if err := promfmt.Lint(metrics); err != nil {
		t.Errorf("serve /metrics: %v", err)
	}
	for _, fam := range []string{"mscope_serve_queries_total", "mscope_serve_renders_total",
		"mscope_serve_errors_total", "mscope_serve_tables", "mscope_serve_rows"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	index := get(t, h, "/", 200, nil).Body.String()
	for _, want := range []string{"mscope serve", "apache_event", "flamegraph.svg", "curl"} {
		if !strings.Contains(index, want) {
			t.Errorf("index page missing %q", want)
		}
	}
}

// TestServeErrorPaths pins the API's failure modes: malformed queries,
// absent tables, and broken time ranges answer 4xx with a JSON error,
// never a 200 or a panic.
func TestServeErrorPaths(t *testing.T) {
	h := smokeServer(t).Handler()
	fail := func(path string, want int) string {
		t.Helper()
		var e struct {
			Error string `json:"error"`
		}
		get(t, h, path, want, &e)
		if e.Error == "" {
			t.Errorf("GET %s: %d with no error body", path, want)
		}
		return e.Error
	}
	fail("/api/query", 400)                         // no statement
	fail("/api/query?q=SELEC+broken", 400)          // parse error
	fail("/api/query?q=SELECT+*+FROM+no_such", 400) // unknown table in MQL
	fail("/api/window?table=apache_event", 400)     // no value column
	fail("/api/window?table=no_such&value=rt_us", 404)
	fail("/api/window?table=apache_event&value=rt_us&fn=median", 400)
	fail("/api/window?table=apache_event&value=rt_us&window=banana", 400)
	fail("/api/window?table=apache_event&value=rt_us&time=ud&from=abc", 400)
	fail("/api/window?table=apache_event&value=rt_us&time=ud&from=5&to=abc", 400)
	fail("/api/window?table=apache_event&value=rt_us&time=ud&from=100&to=100", 400)
	fail("/api/window?table=apache_event&value=rt_us&time=ud&by=rt_us", 400) // non-string group col
	fail("/api/traces?limit=-3", 400)
	if msg := fail("/api/traces?limit=1000000000", 400); !strings.Contains(msg, strconv.Itoa(maxTraces)) {
		t.Errorf("a limit above the cap answers %q, which does not name it", msg)
	}
	fail("/api/trace/nope", 404)
	fail("/flamegraph.svg?reqid=nope", 404)

	// The failures were counted on the errors family.
	s := smokeServer(t)
	get(t, s.Handler(), "/api/query", 400, nil)
	if !strings.Contains(s.MetricsText(), "mscope_serve_errors_total 1") {
		t.Error("error counter did not advance")
	}
}

// TestNoEventTablesIs404: a warehouse holding only resource tables has no
// request to trace, and the trace endpoints say so with a 404, not a 500.
func TestNoEventTablesIs404(t *testing.T) {
	db := mscopedb.Open()
	if _, err := db.Create("mysql_collectlcsv", []mscopedb.Column{
		{Name: "time", Type: mscopedb.TTime}, {Name: "cpu_user", Type: mscopedb.TFloat},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, path := range []string{"/api/traces", "/api/trace/req-1", "/api/flamegraph", "/flamegraph.svg"} {
		var e struct {
			Error string `json:"error"`
		}
		get(t, h, path, 404, &e)
		if !strings.Contains(e.Error, "event tables") {
			t.Errorf("GET %s: 404 body %q does not say why", path, e.Error)
		}
	}
	get(t, h, "/", 200, nil)
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no warehouse source must fail")
	}
}

// TestServeScenarioSweep: the service answers a window-aggregation
// query and renders a flamegraph for every scenario in the catalogue —
// including crashloop, whose cjdbc event log is gone and whose traces
// are provably partial.
func TestServeScenarioSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep is the long gate")
	}
	for _, spec := range core.Scenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			db := scenarioWarehouse(t, spec.Name, 50)
			s, err := New(Config{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			var out queryResult
			get(t, h, "/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms&time=ud", 200, &out)
			if len(out.Rows) == 0 {
				t.Error("window aggregation returned no rows")
			}
			svg := get(t, h, "/flamegraph.svg", 200, nil).Body.String()
			if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "critical path") {
				t.Errorf("flamegraph did not render: %.120s", svg)
			}
		})
	}
}
