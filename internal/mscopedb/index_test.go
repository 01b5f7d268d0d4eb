package mscopedb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
	"unsafe"
)

// indexTestTable builds a table big enough to trigger the sorted index,
// with duplicate and out-of-order timestamps so candidate re-ordering and
// tie stability actually matter.
func indexTestTable(t *testing.T, rows int) *Table {
	t.Helper()
	tbl, err := NewTable("probe", []Column{
		{Name: "ts", Type: TTime},
		{Name: "val", Type: TInt},
		{Name: "tier", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(1_700_000_000, 0).UTC()
	tiers := []string{"apache", "tomcat", "cjdbc", "mysql"}
	for i := 0; i < rows; i++ {
		// Mostly increasing with jitter, plus frequent exact duplicates.
		ts := base.Add(time.Duration(i/3) * time.Millisecond)
		if rng.Intn(5) == 0 {
			ts = ts.Add(-time.Duration(rng.Intn(40)) * time.Millisecond)
		}
		if err := tbl.Append(ts, int64(rng.Intn(1000)), tiers[i%len(tiers)]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanRows is the reference implementation: the pre-index full scan.
func scanRows(t *testing.T, q *Query) []int {
	t.Helper()
	var idx []int
	for r := 0; r < q.t.rows; r++ {
		if matchRow(q.t.cols, q.t.data, r, q.preds) {
			idx = append(idx, r)
		}
	}
	return idx
}

// TestBetweenIndexMatchesScan is the differential test for the sorted
// index: every Between window, with and without extra predicates, must
// select exactly the rows a full scan selects, in the same order —
// including after appends staled the index and after Widen invalidated it.
func TestBetweenIndexMatchesScan(t *testing.T) {
	tbl := indexTestTable(t, 2000)
	base := time.Unix(1_700_000_000, 0).UTC()
	check := func(label string, mk func() *Query) {
		t.Helper()
		q := mk()
		if q.err != nil {
			t.Fatalf("%s: %v", label, q.err)
		}
		want := scanRows(t, q)
		got := q.candidates()
		if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
			t.Fatalf("%s: index gave %d rows, scan %d rows\nindex %v\nscan  %v",
				label, len(got), len(want), got, want)
		}
	}
	windows := []struct{ lo, hi time.Duration }{
		{0, 100 * time.Millisecond},
		{50 * time.Millisecond, 60 * time.Millisecond},
		{-time.Second, 2 * time.Second},                  // everything
		{3 * time.Second, 4 * time.Second},               // nothing
		{100 * time.Millisecond, 100 * time.Millisecond}, // point window
	}
	for _, w := range windows {
		w := w
		check(fmt.Sprintf("between %v..%v", w.lo, w.hi), func() *Query {
			return tbl.Select().Between("ts", base.Add(w.lo), base.Add(w.hi))
		})
		check(fmt.Sprintf("between+preds %v..%v", w.lo, w.hi), func() *Query {
			return tbl.Select().Between("ts", base.Add(w.lo), base.Add(w.hi)).
				Where("tier", OpEq, "tomcat").Where("val", OpLt, 500)
		})
	}
	if tbl.idx == nil || tbl.idx[0] == nil {
		t.Fatal("sorted index was never built")
	}

	// Stale the index with appends (the streaming shape) and re-check:
	// the extended index must include the new rows.
	for i := 0; i < 500; i++ {
		ts := base.Add(time.Duration(600+i/2) * time.Millisecond)
		if err := tbl.Append(ts, int64(i), "apache"); err != nil {
			t.Fatal(err)
		}
	}
	check("after append", func() *Query {
		return tbl.Select().Between("ts", base.Add(590*time.Millisecond), base.Add(700*time.Millisecond))
	})
	if got := tbl.idx[0].rows; got != tbl.rows {
		t.Fatalf("index rows %d after refresh, want %d", got, tbl.rows)
	}

	// Widen the indexed column away; the cached entry must not serve the
	// now string-typed data.
	if err := tbl.Widen("ts", TString); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.idx[0]; ok {
		t.Fatal("Widen left a stale index behind")
	}
}

// TestSmallTableSkipsIndex pins the scan fallback: below indexMinRows no
// index is built and results still match the reference scan.
func TestSmallTableSkipsIndex(t *testing.T) {
	tbl := indexTestTable(t, indexMinRows-1)
	base := time.Unix(1_700_000_000, 0).UTC()
	q := tbl.Select().Between("ts", base, base.Add(50*time.Millisecond))
	want := scanRows(t, q)
	got := q.candidates()
	if fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
		t.Fatalf("small-table results differ: %v vs %v", got, want)
	}
	if tbl.idx != nil {
		t.Fatal("index built below indexMinRows")
	}
}

// TestStringInterning checks that low-cardinality columns share backing
// strings and high-cardinality columns shut interning off.
func TestStringInterning(t *testing.T) {
	tbl, err := NewTable("intern", []Column{
		{Name: "low", Type: TString},
		{Name: "high", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	line := "tomcat 10.0.0.2 GET /item/1" // cells are substrings of one line
	for i := 0; i < internCap+100; i++ {
		if err := tbl.AppendStrings([]string{line[:6], fmt.Sprintf("req-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	lowCol := tbl.data[0].Strs
	// All equal values must share one backing array, detached from the
	// source line.
	for i := 1; i < len(lowCol); i++ {
		if lowCol[i] != "tomcat" {
			t.Fatalf("row %d: %q", i, lowCol[i])
		}
		if unsafe.StringData(lowCol[i]) != unsafe.StringData(lowCol[0]) {
			t.Fatalf("row %d not interned", i)
		}
	}
	if unsafe.StringData(lowCol[0]) == unsafe.StringData(line) {
		t.Fatal("interned value still pins the source line")
	}
	if tbl.data[0].internOff {
		t.Fatal("low-cardinality column lost its intern map")
	}
	if !tbl.data[1].internOff {
		t.Fatal("high-cardinality column kept interning past the cap")
	}
}

// TestLatestIngestOffsetPersists checks the O(1) ledger map survives a
// Save/Load round trip with last-row-wins semantics.
func TestLatestIngestOffsetPersists(t *testing.T) {
	db := Open()
	if err := db.RecordIngestAt("t1", "/logs/a.log", 10, 100, time.Unix(0, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordIngestAt("t1", "/logs/a.log", 25, 250, time.Unix(0, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordIngest("t2", "/work/b.csv", 5, time.Unix(0, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	checkDB := func(d *DB, label string) {
		t.Helper()
		if off, ok := d.LatestIngestOffset("/logs/a.log"); !ok || off != 250 {
			t.Fatalf("%s: a.log offset %d/%v, want 250/true", label, off, ok)
		}
		if off, ok := d.LatestIngestOffset("/work/b.csv"); !ok || off != 0 {
			t.Fatalf("%s: b.csv offset %d/%v, want 0/true", label, off, ok)
		}
		if _, ok := d.LatestIngestOffset("/logs/never.log"); ok {
			t.Fatalf("%s: phantom ledger entry", label)
		}
	}
	checkDB(db, "live")
	path := filepath.Join(t.TempDir(), "w.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	checkDB(loaded, "loaded")
}
