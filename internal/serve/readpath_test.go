package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
)

// TestSubMicrosecondWindowIs400: a window below the warehouse's resolution
// used to divide by zero inside the handler, and a 1 µs window over a
// whole trial to allocate a grid slot per microsecond of it.
func TestSubMicrosecondWindowIs400(t *testing.T) {
	h := smokeServer(t).Handler()
	for _, path := range []string{
		"/api/window?table=apache_event&value=ua&time=ud&window=1ns",
		"/api/window?table=apache_event&value=ua&time=ud&window=999ns&by=method",
		"/api/window?table=apache_event&value=ua&time=ud&window=1us",
		"/api/query?q=" + url.QueryEscape("SELECT WINDOW 1ns MAX(ua) BY ud FROM apache_event"),
		"/api/query?q=" + url.QueryEscape("SELECT WINDOW 1us MAX(ua) BY ud FROM apache_event"),
	} {
		get(t, h, path, 400, nil)
	}
	get(t, h, "/api/window?table=apache_event&value=ua&time=ud&window=1ms", 200, nil)
}

// slowestFirstOracle is what /api/traces and the default flamegraph were
// computed from before they ranked a projected pass: every trace built,
// all of them sorted.
func slowestFirstOracle(t *testing.T, db *mscopedb.DB) []*tracegraph.Trace {
	t.Helper()
	traces, _, err := tracegraph.BuildPartial(db, core.EventTables())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*tracegraph.Trace, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].ResponseTime(), out[j].ResponseTime()
		if ri != rj {
			return ri > rj
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

func jsonBody(v any) []byte {
	rec := httptest.NewRecorder()
	promfmt.WriteJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// TestSpilledReadPath drives the trace and diagnosis endpoints over a
// reopened, spilled dbio warehouse (segments plus a tail) that also holds
// requests the front tier never logged and requests tied on response time.
func TestSpilledReadPath(t *testing.T) {
	logs := scenarioLogs(t, "dbio", 0)
	dir := t.TempDir()
	opts := mscopedb.StoreOptions{SealRows: 2048}
	db, err := mscopedb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transform.IngestDir(db, logs, t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	tomcat, err := db.Table("tomcat_event")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{ // ltime, thread, reqid, uri, ua, ud, ds, dr
		{"2017-04-01T00:00:30Z", "t-1", "zz-orphan", "/x", "1491004830000000", "1491004839000000", "1491004831000000", "1491004838000000"},
		{"2017-04-01T00:00:31Z", "t-2", "tie-b", "/x", "1491004831000000", "1491004835000000", "-", "-"},
		{"2017-04-01T00:00:32Z", "t-3", "tie-a", "/x", "1491004832000000", "1491004836000000", "-", "-"},
	} {
		if err := tomcat.AppendStrings(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db, err = mscopedb.OpenDir(dir, opts); err != nil {
		t.Fatal(err)
	}
	apache, _ := db.Table("apache_event")
	if apache.Segments() < 2 || apache.SealedRows() == apache.Rows() {
		t.Fatalf("want segments and a tail: %d segments, %d of %d rows sealed", apache.Segments(), apache.SealedRows(), apache.Rows())
	}
	s, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ordered := slowestFirstOracle(t, db)

	t.Run("traces equal the sorted build", func(t *testing.T) {
		for _, limit := range []int{1, 3, 10, 50} {
			want := make([]traceSummary, 0, limit)
			for _, tr := range ordered[:limit] {
				want = append(want, traceSummary{ReqID: tr.ReqID, RTUS: tr.ResponseTime().Microseconds(),
					Spans: len(tr.Spans), Complete: tr.Complete(), Coverage: tr.Coverage()})
			}
			got := get(t, h, "/api/traces?limit="+itoa(limit), 200, nil).Body.Bytes()
			if !bytes.Equal(got, jsonBody(want)) {
				t.Fatalf("limit=%d:\n%s\nwant\n%s", limit, got, jsonBody(want))
			}
		}
		if ordered[0].ReqID != "zz-orphan" || ordered[1].ReqID != "tie-a" || ordered[2].ReqID != "tie-b" {
			t.Fatalf("planted requests rank %s, %s, %s", ordered[0].ReqID, ordered[1].ReqID, ordered[2].ReqID)
		}
	})
	t.Run("default flame is the slowest request's", func(t *testing.T) {
		want := tracegraph.BuildFlame(ordered[0])
		if got := get(t, h, "/api/flamegraph", 200, nil).Body.Bytes(); !bytes.Equal(got, jsonBody(want)) {
			t.Fatalf("/api/flamegraph:\n%s\nwant\n%s", got, jsonBody(want))
		}
		var svg bytes.Buffer
		if err := want.WriteSVG(&svg); err != nil {
			t.Fatal(err)
		}
		if got := get(t, h, "/flamegraph.svg", 200, nil).Body.Bytes(); !bytes.Equal(got, svg.Bytes()) {
			t.Fatal("/flamegraph.svg differs from the slowest request's flame")
		}
		for _, tr := range ordered[3:8] {
			got := get(t, h, "/api/trace/"+tr.ReqID, 200, nil).Body.Bytes()
			if !bytes.Equal(got, jsonBody(tracegraph.BuildFlame(tr))) {
				t.Fatalf("/api/trace/%s differs from the build's flame", tr.ReqID)
			}
		}
	})
	t.Run("a warm trace lookup allocates by what it returns", func(t *testing.T) {
		path := "/api/trace/" + ordered[5].ReqID
		get(t, h, path, 200, nil) // builds the indexes
		allocs := testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		})
		t.Logf("%.0f allocations per warm /api/trace", allocs)
		if allocs > 3000 {
			t.Fatalf("%.0f allocations for one warm /api/trace; the bound is 3000 (a full rebuild was ~218,000)", allocs)
		}
		metrics := get(t, h, "/metrics", 200, nil).Body.String()
		for _, fam := range []string{"mscope_db_index_bytes", "mscope_db_segments_decoded_total", "mscope_db_index_evictions_total"} {
			if !strings.Contains(metrics, fam) {
				t.Errorf("/metrics missing %s", fam)
			}
		}
		if strings.Contains(metrics, "mscope_db_index_bytes 0\n") {
			t.Error("lookups retained no index")
		}
	})
	t.Run("requests leave their spans", func(t *testing.T) {
		col := selfobs.Enable("serve-test", time.Unix(0, 0))
		defer selfobs.Disable()
		get(t, h, "/api/trace/"+ordered[4].ReqID, 200, nil)
		get(t, h, "/api/window?table=apache_event&value=rt_us&time=ud&window=50ms", 200, nil)
		get(t, h, "/api/diagnosis", 200, nil)
		get(t, h, "/api/trace/nope", 404, nil)
		seen := map[string]selfobs.Rec{}
		for _, r := range col.Snapshot() {
			seen[r.Pipeline+"/"+r.Stage+"/"+r.Span] = r
		}
		for _, want := range []string{"serve/trace/-", "serve/window/-", "serve/diagnosis/-",
			"mscopedb/lookup/-", "mscopedb/scan/query", "mscopedb/scan/chunks",
			"diagnose/evidence/queues", "diagnose/evidence/resources", "diagnose/evidence/netlag"} {
			if _, ok := seen[want]; !ok {
				t.Errorf("no %s span recorded", want)
			}
		}
		if r := seen["serve/trace/-"]; r.Items != 1 || r.Errs != 1 {
			t.Errorf("the last trace request (a 404) recorded items=%d errs=%d", r.Items, r.Errs)
		}
		if r := seen["mscopedb/scan/segments_decoded"]; r.Kind != "counter" || r.Items == 0 {
			t.Errorf("segments_decoded counter = %+v", r)
		}
	})
	// Last: it damages the warehouse.
	t.Run("an unreadable segment is a 500 naming the file", func(t *testing.T) {
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*-apache_event.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no apache_event segment files (%v)", err)
		}
		// A request whose front-tier row lives in the first segment.
		var first queryResult
		get(t, h, "/api/query?q="+url.QueryEscape("SELECT reqid FROM apache_event LIMIT 1"), 200, &first)
		raw, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// A fresh server: each endpoint's first read meets the damage.
		s, err := New(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, path := range []string{
			"/api/trace/" + first.Rows[0][0],
			"/api/traces?limit=3",
			"/flamegraph.svg",
			"/api/window?table=apache_event&value=rt_us&time=ud&window=50ms",
			"/api/query?q=" + url.QueryEscape("SELECT reqid FROM apache_event WHERE rt_us > 0 LIMIT 3"),
			"/api/diagnosis",
		} {
			var e struct {
				Error string `json:"error"`
			}
			body := get(t, h, path, 500, nil).Body.Bytes()
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "mscopedb: segment "+filepath.Base(segs[0])+": ") {
				t.Errorf("GET %s: 500 body %q does not name %s", path, body, filepath.Base(segs[0]))
			}
		}
		// The process survived, and tables it did not touch still answer.
		get(t, h, "/api/window?table=mysql_event&value=query_time&time=time&window=50ms", 200, nil)
		get(t, h, "/api/query?q="+url.QueryEscape("SELECT reqid FROM tomcat_event LIMIT 3"), 200, nil)
		get(t, h, "/api/tables", 200, nil)
		get(t, h, "/healthz", 200, nil)
	})
}

func itoa(n int) string { b, _ := json.Marshal(n); return string(b) }

// TestWindowFnSpellings: /api/window takes the aggregate in any case, with
// empty and "mean" meaning avg, and answers each spelling exactly as it
// answers the canonical name; any other name is a 400.
func TestWindowFnSpellings(t *testing.T) {
	h := smokeServer(t).Handler()
	body := func(fn string, want int) string {
		path := "/api/window?table=apache_event&value=rt_us&time=ud&window=50ms&fn=" + url.QueryEscape(fn)
		return get(t, h, path, want, nil).Body.String()
	}
	for canonical, spellings := range map[string][]string{
		"avg":   {"", "AVG", "Avg", "mean", "MEAN", "Mean"},
		"max":   {"MAX", "Max"},
		"min":   {"MIN", "mIn"},
		"sum":   {"SUM"},
		"count": {"COUNT", "Count"},
		"p99":   {"P99"},
	} {
		want := body(canonical, 200)
		for _, fn := range spellings {
			if got := body(fn, 200); got != want {
				t.Errorf("fn=%q answered differently from fn=%s", fn, canonical)
			}
		}
	}
	if body("max", 200) == body("min", 200) {
		t.Fatal("max and min answered alike: fn was ignored")
	}
	for _, fn := range []string{"median", "average", "p95", " avg", "avg ", "means"} {
		body(fn, 400)
	}
}
