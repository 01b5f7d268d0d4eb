package mql

import (
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

func windowDB(t *testing.T) *mscopedb.DB {
	t.Helper()
	db := mscopedb.Open()
	tbl, err := db.Create("win_event", []mscopedb.Column{
		{Name: "ud", Type: mscopedb.TInt},
		{Name: "rt_us", Type: mscopedb.TInt},
		{Name: "tier", Type: mscopedb.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		ud, rt int64
		tier   string
	}{
		{1_000, 100, "apache"},
		{2_000, 300, "apache"},
		{60_000, 50, "tomcat"},
		{61_000, 70, "apache"},
		{120_000, 900, "tomcat"},
	}
	for _, r := range rows {
		if err := tbl.Append(r.ud, r.rt, r.tier); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestWindowGroupBy(t *testing.T) {
	db := windowDB(t)
	out, err := Run(db, "SELECT WINDOW 50ms COUNT() BY ud FROM win_event GROUP BY tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cols) != 3 || out.Cols[0] != "tier" {
		t.Fatalf("cols = %v, want [tier window_start_us count]", out.Cols)
	}
	if len(out.Groups) != 2 {
		t.Fatalf("got %d groups, want 2 (apache, tomcat)", len(out.Groups))
	}
	if out.Groups[0].Key != "apache" || out.Groups[1].Key != "tomcat" {
		t.Fatalf("group keys = %q, %q; want sorted apache, tomcat", out.Groups[0].Key, out.Groups[1].Key)
	}
	total := 0.0
	for _, g := range out.Groups {
		for _, v := range g.Values {
			total += v
		}
	}
	if total != 5 {
		t.Fatalf("grouped counts sum to %g, want 5", total)
	}
	// Every rendered row leads with its group key, and the rows are the
	// groups' windows: no [][]string copy of them.
	if out.Rows != nil || out.Len() != len(out.Groups[0].Values)+len(out.Groups[1].Values) {
		t.Fatalf("%d rows, %d cell rows, for %d+%d windows", out.Len(), len(out.Rows), len(out.Groups[0].Values), len(out.Groups[1].Values))
	}
	for r := 0; r < out.Len(); r++ {
		if key := string(out.AppendCell(nil, r, 0)); key != "apache" && key != "tomcat" {
			t.Fatalf("row %d leads with %q, not a group key", r, key)
		}
	}
}

func TestWindowEdgeCases(t *testing.T) {
	db := windowDB(t)

	// A window over an empty selection yields zero rows, not an error.
	out, err := Run(db, "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM win_event WHERE rt_us > 100000")
	if err != nil {
		t.Fatalf("empty window: %v", err)
	}
	if out.Len() != 0 || out.Series == nil || len(out.Series.Values) != 0 {
		t.Fatalf("empty window: %d rows, series %v, want empty", out.Len(), out.Series)
	}

	// A single-row selection yields exactly one window.
	out, err = Run(db, "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM win_event WHERE rt_us = 900")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || string(out.AppendCell(nil, 0, 1)) != "900" {
		t.Fatalf("single-row window: %v, want one row of 900", out.Series)
	}

	// ORDER BY cannot combine with WINDOW: the output order is the grid.
	_, err = Run(db, "SELECT WINDOW 50ms MAX(rt_us) BY ud FROM win_event ORDER BY rt_us DESC")
	if err == nil || !strings.Contains(err.Error(), "ORDER BY cannot combine with WINDOW") {
		t.Fatalf("windowed ORDER BY: err = %v, want rejection", err)
	}

	// GROUP BY without WINDOW is rejected.
	_, err = Run(db, "SELECT tier FROM win_event GROUP BY tier")
	if err == nil || !strings.Contains(err.Error(), "GROUP BY requires a WINDOW") {
		t.Fatalf("bare GROUP BY: err = %v, want rejection", err)
	}

	// GROUP BY over a numeric column is rejected at run time.
	_, err = Run(db, "SELECT WINDOW 50ms COUNT() BY ud FROM win_event GROUP BY rt_us")
	if err == nil || !strings.Contains(err.Error(), "string column") {
		t.Fatalf("numeric GROUP BY: err = %v, want string-column rejection", err)
	}

	// Unknown group column is a run-time error naming the column.
	_, err = Run(db, "SELECT WINDOW 50ms COUNT() BY ud FROM win_event GROUP BY nope")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown GROUP BY column: err = %v", err)
	}

	// Malformed window durations are parse errors.
	_, err = Run(db, "SELECT WINDOW bogus MAX(rt_us) BY ud FROM win_event")
	if err == nil || !strings.Contains(err.Error(), "window duration") {
		t.Fatalf("bad duration: err = %v", err)
	}
	_, err = Run(db, "SELECT WINDOW -50ms MAX(rt_us) BY ud FROM win_event")
	if err == nil {
		t.Fatal("negative duration accepted")
	}
}
