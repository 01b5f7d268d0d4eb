package tracegraph

import (
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// buildDB assembles a two-tier warehouse: apache_event (int ds/dr) and
// tomcat_event (string ds/dr with dashes), two requests.
func buildDB(t *testing.T) *mscopedb.DB {
	t.Helper()
	db := mscopedb.Open()
	ap, err := db.Create("apache_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ua", Type: mscopedb.TInt},
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "ds", Type: mscopedb.TInt},
		{Name: "dr", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := db.Create("tomcat_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ua", Type: mscopedb.TInt},
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "ds", Type: mscopedb.TString},
		{Name: "dr", Type: mscopedb.TString},
		{Name: "q", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Request 1: apache [100..900], calls tomcat [200..800] (leaf).
	if err := ap.Append("req-1", int64(100), int64(900), int64(150), int64(850)); err != nil {
		t.Fatal(err)
	}
	if err := tc.Append("req-1", int64(200), int64(800), "-", "-", int64(0)); err != nil {
		t.Fatal(err)
	}
	// Request 2: apache only (tomcat record missing — partial trace).
	if err := ap.Append("req-2", int64(1000), int64(1500), int64(1100), int64(1400)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildJoinsByID(t *testing.T) {
	db := buildDB(t)
	traces, err := Build(db, []string{"apache_event", "tomcat_event"})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("%d traces", len(traces))
	}
	tr := traces["req-1"]
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("req-1 trace: %+v", tr)
	}
	if tr.Spans[0].Tier != "apache" || tr.Spans[1].Tier != "tomcat" {
		t.Fatalf("tier order: %+v", tr.Spans)
	}
	if tr.Spans[1].DS != 0 || tr.Spans[1].DR != 0 {
		t.Fatalf("dash ds/dr not parsed as zero: %+v", tr.Spans[1])
	}
	if tr.ResponseTime() != 800*time.Microsecond {
		t.Fatalf("response time %v", tr.ResponseTime())
	}
}

func TestLocalTimeBreakdown(t *testing.T) {
	db := buildDB(t)
	traces, err := Build(db, []string{"apache_event", "tomcat_event"})
	if err != nil {
		t.Fatal(err)
	}
	lt := traces["req-1"].LocalTime()
	// apache: (900-100) - (850-150) = 100µs local; tomcat leaf: 600µs.
	if lt["apache"] != 100*time.Microsecond {
		t.Fatalf("apache local %v", lt["apache"])
	}
	if lt["tomcat"] != 600*time.Microsecond {
		t.Fatalf("tomcat local %v", lt["tomcat"])
	}
}

func TestValidateHappensBefore(t *testing.T) {
	db := buildDB(t)
	traces, err := Build(db, []string{"apache_event", "tomcat_event"})
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"apache", "tomcat"}
	if err := traces["req-1"].Validate(order, 0); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	// Corrupt: child UA before parent's DS beyond tolerance.
	bad := &Trace{ReqID: "x", Spans: []Span{
		{Tier: "apache", UA: 100, UD: 900, DS: 500, DR: 850},
		{Tier: "tomcat", UA: 200, UD: 800},
	}}
	if err := bad.Validate(order, 0); err == nil {
		t.Fatal("causality violation accepted")
	}
	// Tolerated under clock skew allowance.
	if err := bad.Validate(order, 400*time.Microsecond); err != nil {
		t.Fatalf("skew tolerance not applied: %v", err)
	}
}

func TestValidateUAafterUD(t *testing.T) {
	bad := &Trace{ReqID: "x", Spans: []Span{{Tier: "a", UA: 10, UD: 5}}}
	if err := bad.Validate([]string{"a"}, 0); err == nil {
		t.Fatal("UA>UD accepted")
	}
}

func TestMultiQuerySpansSorted(t *testing.T) {
	db := mscopedb.Open()
	my, err := db.Create("mysql_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ua", Type: mscopedb.TInt},
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "q", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Insert out of order.
	if err := my.Append("req-1", int64(300), int64(400), int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := my.Append("req-1", int64(100), int64(200), int64(0)); err != nil {
		t.Fatal(err)
	}
	traces, err := Build(db, []string{"mysql_event"})
	if err != nil {
		t.Fatal(err)
	}
	sp := traces["req-1"].Spans
	if sp[0].Seq != 0 || sp[1].Seq != 1 {
		t.Fatalf("spans not ordered by seq: %+v", sp)
	}
}

func TestValidatePerQueryPairing(t *testing.T) {
	// Two cjdbc visits each wrapping their own mysql query; the second
	// mysql UD lies far outside the FIRST cjdbc window — valid only when
	// children pair with parents by sequence.
	tr := &Trace{ReqID: "x", Spans: []Span{
		{Tier: "cjdbc", Seq: 0, UA: 100, UD: 300, DS: 120, DR: 280},
		{Tier: "cjdbc", Seq: 1, UA: 500, UD: 700, DS: 520, DR: 680},
		{Tier: "mysql", Seq: 0, UA: 130, UD: 270},
		{Tier: "mysql", Seq: 1, UA: 530, UD: 670},
	}}
	if err := tr.Validate([]string{"cjdbc", "mysql"}, 0); err != nil {
		t.Fatalf("pairwise-valid trace rejected: %v", err)
	}
	// Swap the mysql windows: now pairing is violated.
	bad := &Trace{ReqID: "x", Spans: []Span{
		{Tier: "cjdbc", Seq: 0, UA: 100, UD: 300, DS: 120, DR: 280},
		{Tier: "cjdbc", Seq: 1, UA: 500, UD: 700, DS: 520, DR: 680},
		{Tier: "mysql", Seq: 0, UA: 530, UD: 670},
		{Tier: "mysql", Seq: 1, UA: 130, UD: 270},
	}}
	if err := bad.Validate([]string{"cjdbc", "mysql"}, 0); err == nil {
		t.Fatal("mispaired queries accepted")
	}
}

func TestAggregateBreakdown(t *testing.T) {
	traces := map[string]*Trace{
		"req-1": {ReqID: "req-1", Spans: []Span{
			{Tier: "apache", UA: 0, UD: 1000, DS: 100, DR: 900},
			{Tier: "tomcat", UA: 150, UD: 850},
		}},
		"req-2": {ReqID: "req-2", Spans: []Span{
			{Tier: "apache", UA: 0, UD: 2000, DS: 100, DR: 1900},
			{Tier: "tomcat", UA: 150, UD: 1850},
		}},
	}
	prof := AggregateBreakdown(traces)
	ap := prof["apache"]
	if ap.Visits != 2 {
		t.Fatalf("apache visits %d", ap.Visits)
	}
	// apache local: (1000-800)=200µs and (2000-1800)=200µs → mean 200µs.
	if ap.MeanLocal != 200*time.Microsecond {
		t.Fatalf("apache mean local %v", ap.MeanLocal)
	}
	tc := prof["tomcat"]
	if tc.MeanResidence != 1200*time.Microsecond {
		t.Fatalf("tomcat mean residence %v", tc.MeanResidence)
	}
	if tc.P99Local < tc.MeanLocal {
		t.Fatalf("p99 %v below mean %v", tc.P99Local, tc.MeanLocal)
	}
}

func TestBuildMissingColumns(t *testing.T) {
	db := mscopedb.Open()
	if _, err := db.Create("bad_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(db, []string{"bad_event"}); err == nil {
		t.Fatal("missing ua/ud accepted")
	}
	if _, err := Build(db, []string{"no_such"}); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestTierOfTable(t *testing.T) {
	if tierOfTable("apache_event") != "apache" {
		t.Fatal("tierOfTable apache_event")
	}
	if tierOfTable("plain") != "plain" {
		t.Fatal("tierOfTable plain")
	}
}

func TestSkipsEmptyReqID(t *testing.T) {
	db := mscopedb.Open()
	my, err := db.Create("mysql_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ua", Type: mscopedb.TInt},
		{Name: "ud", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := my.Append("", int64(1), int64(2)); err != nil {
		t.Fatal(err)
	}
	if err := my.Append("req-9", int64(1), int64(2)); err != nil {
		t.Fatal(err)
	}
	traces, err := Build(db, []string{"mysql_event"})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("%d traces; empty-ID record not skipped", len(traces))
	}
	for id := range traces {
		if !strings.HasPrefix(id, "req-") {
			t.Fatalf("trace id %q", id)
		}
	}
}
