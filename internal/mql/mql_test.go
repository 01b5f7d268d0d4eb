package mql

import (
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

func testDB(t testing.TB) *mscopedb.DB {
	t.Helper()
	db := mscopedb.Open()
	tbl, err := db.Create("apache_event", []mscopedb.Column{
		{Name: "ts", Type: mscopedb.TTime},
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "rt_us", Type: mscopedb.TInt},
		{Name: "util", Type: mscopedb.TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	rows := []struct {
		off time.Duration
		id  string
		rt  int64
		u   float64
	}{
		{0, "req-1", 5000, 10.5},
		{20 * time.Millisecond, "req-2", 7000, 22},
		{60 * time.Millisecond, "req-3", 150000, 97},
		{110 * time.Millisecond, "req-4", 6000, 15},
	}
	for _, r := range rows {
		ts := base.Add(r.off)
		if err := tbl.Append(ts, r.id, ts.UnixMicro()+r.rt, r.rt, r.u); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT * FROM apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 4 || len(out.Cols) != 5 {
		t.Fatalf("rows=%d cols=%d", len(out.Rows), len(out.Cols))
	}
}

func TestSelectColsWhere(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT reqid, rt_us FROM apache_event WHERE rt_us > 6500 AND util < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "req-2" {
		t.Fatalf("rows %+v", out.Rows)
	}
}

func TestWhereString(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT rt_us FROM apache_event WHERE reqid = 'req-3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "150000" {
		t.Fatalf("rows %+v", out.Rows)
	}
}

func TestWhereTime(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT reqid FROM apache_event WHERE ts >= '2017-04-01T00:00:00.05Z'")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows %+v", out.Rows)
	}
}

func TestOrderLimit(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT reqid FROM apache_event ORDER BY rt_us DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0][0] != "req-3" || out.Rows[1][0] != "req-2" {
		t.Fatalf("rows %+v", out.Rows)
	}
}

func TestWindowAggMax(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if out.Series == nil || len(out.Series.Values) == 0 {
		t.Fatal("no series")
	}
	peak := 0.0
	for _, v := range out.Series.Values {
		if v > peak {
			peak = v
		}
	}
	if peak != 150000 {
		t.Fatalf("peak %v", peak)
	}
}

func TestWindowCount(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT WINDOW 1s COUNT() BY ts FROM apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series.Values) != 1 || out.Series.Values[0] != 4 {
		t.Fatalf("series %+v", out.Series)
	}
}

func TestWindowAggOnTimeColumn(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT WINDOW 100ms AVG(util) BY ts FROM apache_event WHERE util < 90")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series.Values) != 2 {
		t.Fatalf("series %+v", out.Series)
	}
}

func TestParseErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROMM apache_event",
		"SELECT * FROM apache_event WHERE",
		"SELECT * FROM apache_event WHERE rt_us ~ 5",
		"SELECT * FROM apache_event LIMIT x",
		"SELECT WINDOW bogus MAX(rt_us) BY ud FROM apache_event",
		"SELECT WINDOW 50ms NOPE(rt_us) BY ud FROM apache_event",
		"SELECT WINDOW 50ms MAX rt_us BY ud FROM apache_event",
		// A window series is its whole grid: no LIMIT cuts it.
		"SELECT WINDOW 50ms MAX(rt_us) BY ts FROM apache_event LIMIT 1",
		"SELECT * FROM apache_event alias trailing", // alias consumed, then junk
		"SELECT 'unterminated FROM apache_event",
	}
	for _, q := range bad {
		if _, err := Run(db, q); err == nil {
			t.Fatalf("query accepted: %q", q)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT * FROM no_table",
		"SELECT nope FROM apache_event",
		"SELECT * FROM apache_event WHERE nope = 5",
		"SELECT * FROM apache_event WHERE rt_us > 'str'",
		"SELECT WINDOW 50ms MAX(nope) BY ud FROM apache_event",
		"SELECT WINDOW 50ms MAX(rt_us) BY reqid FROM apache_event",
	}
	for _, q := range bad {
		if _, err := Run(db, q); err == nil {
			t.Fatalf("query accepted: %q", q)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "select reqid from apache_event where rt_us >= 150000 order by rt_us asc limit 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "req-3" {
		t.Fatalf("rows %+v", out.Rows)
	}
}

func TestWindowP99(t *testing.T) {
	db := mscopedb.Open()
	tbl, err := db.Create("t", []mscopedb.Column{
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "rt", Type: mscopedb.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		rt := int64(1000)
		// 4 outliers of 200 = the top 2%, so p99 lands inside them.
		if i >= 150 && i < 154 {
			rt = 99999
		}
		if err := tbl.Append(i*1000, rt); err != nil {
			t.Fatal(err)
		}
	}
	out, err := Run(db, "SELECT WINDOW 1s P99(rt) BY ud FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series.Values) != 1 || out.Series.Values[0] != 99999 {
		t.Fatalf("p99 series %+v", out.Series)
	}
}

func BenchmarkQueryScan(b *testing.B) {
	db := mscopedb.Open()
	tbl, err := db.Create("apache_event", []mscopedb.Column{
		{Name: "reqid", Type: mscopedb.TString},
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "rt_us", Type: mscopedb.TInt},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < 100000; i++ {
		if err := tbl.Append("req", i*100, i%2000); err != nil {
			b.Fatal(err)
		}
	}
	st, err := Parse("SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event WHERE rt_us > 1000")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Exec(db, st)
		if err != nil || len(out.Series.Values) == 0 {
			b.Fatalf("err=%v", err)
		}
	}
}

func TestRenderTimeCell(t *testing.T) {
	db := testDB(t)
	out, err := Run(db, "SELECT ts FROM apache_event LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.Rows[0][0], "2017-04-01T00:00:00") {
		t.Fatalf("time cell %q", out.Rows[0][0])
	}
}
