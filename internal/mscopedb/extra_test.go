package mscopedb

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSizeBytes(t *testing.T) {
	tbl, err := NewTable("s", []Column{
		{Name: "n", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "ts", Type: TTime},
		{Name: "s", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.SizeBytes() != 0 {
		t.Fatal("empty table has non-zero size")
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Append(int64(i), float64(i), time.Now().UTC(), "abcde"); err != nil {
			t.Fatal(err)
		}
	}
	// 10 rows * (3 numeric * 8 + (5 + 16) string) = 450.
	if got := tbl.SizeBytes(); got != 450 {
		t.Fatalf("SizeBytes = %d, want 450", got)
	}
}

// TestConcurrentReaders exercises the catalog's RWMutex: concurrent
// lookups and scans while tables already exist must be race-free
// (run with -race in CI).
func TestConcurrentReaders(t *testing.T) {
	db := Open()
	tbl, err := db.Create("c", []Column{{Name: "v", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tt, err := db.Table("c")
				if err != nil {
					t.Error(err)
					return
				}
				res, err := tt.Select().Where("v", OpGt, int64(500)).Rows()
				if err != nil || res.Len() != 499 {
					t.Errorf("len=%d err=%v", res.Len(), err)
					return
				}
				_ = db.TableNames()
			}
		}()
	}
	wg.Wait()
}

func TestOpNeAndStrings(t *testing.T) {
	tbl, err := NewTable("x", []Column{
		{Name: "k", Type: TString},
		{Name: "v", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "a", "c"} {
		if err := tbl.Append(k, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Select().Where("k", OpNe, "a").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("!=a rows %d", res.Len())
	}
	// Order by string.
	res, err = tbl.Select().OrderBy("k", false).Rows()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := res.Strings("k")
	if err != nil {
		t.Fatal(err)
	}
	if ks[0] != "c" || ks[3] != "a" {
		t.Fatalf("string order %v", ks)
	}
}

func TestResultTypedExtractErrors(t *testing.T) {
	tbl, err := NewTable("x", []Column{
		{Name: "k", Type: TString},
		{Name: "v", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append("a", int64(1)); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Ints("k"); err == nil {
		t.Fatal("Ints on string column accepted")
	}
	if _, err := res.Strings("v"); err == nil {
		t.Fatal("Strings on int column accepted")
	}
	if _, err := res.Floats("k"); err == nil {
		t.Fatal("Floats on string column accepted")
	}
	if _, err := res.TimesMicros("v"); err == nil {
		t.Fatal("TimesMicros on int column accepted")
	}
	if _, err := res.Ints("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestWindowAggErrors(t *testing.T) {
	tbl, err := NewTable("x", []Column{
		{Name: "k", Type: TString},
		{Name: "v", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.WindowAgg("k", time.Second, "v", AggMax); err == nil {
		t.Fatal("string time column accepted")
	}
	if _, err := res.WindowAgg("v", 0, "v", AggMax); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := res.WindowAgg("v", time.Second, "k", AggMax); err == nil {
		t.Fatal("string aggregation accepted")
	}
	if _, err := res.WindowAgg("v", time.Second, "nope", AggMax); err == nil {
		t.Fatal("unknown value column accepted")
	}
	// Empty selection yields an empty series, not an error.
	s, err := res.WindowAgg("v", time.Second, "v", AggMax)
	if err != nil || len(s.Values) != 0 {
		t.Fatalf("empty selection: %v %v", s, err)
	}
}

func TestParseHelpers(t *testing.T) {
	for _, name := range []string{"int", "float", "time", "string"} {
		typ, err := ParseType(name)
		if err != nil || typ.String() != name {
			t.Fatalf("ParseType(%s) = %v, %v", name, typ, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Fatal("bogus type accepted")
	}
	for _, name := range []string{"avg", "max", "min", "sum", "count", "p99"} {
		fn, err := ParseAggFn(name)
		if err != nil || fn.String() != name {
			t.Fatalf("ParseAggFn(%s) = %v, %v", name, fn, err)
		}
	}
	if _, err := ParseAggFn("median"); err == nil {
		t.Fatal("unknown agg accepted")
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("%d → %q, want %q", int(op), op.String(), want)
		}
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
// checkpoint and reopen with last-row-wins semantics.
func TestLatestIngestOffsetPersists(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkDB(reopened, "reopened")
}

// TestAppendColumns: blocks appended column by column land as rows,
// empty columns fill with zero cells, string cells come from the arena
// interned, an empty table adopts the slices it is given, segments of a
// spill-backed table still fall every SealRows rows, and data of the wrong
// shape or type appends nothing.
func TestAppendColumns(t *testing.T) {
	db, err := OpenDir(t.TempDir(), StoreOptions{SealRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Create("t", []Column{{Name: "n", Type: TInt}, {Name: "f", Type: TFloat},
		{Name: "ts", Type: TTime}, {Name: "s", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	ints := []int64{1, 2, 3}
	if err := tbl.AppendColumns(3, []ColumnData{{Ints: ints}, {Floats: []float64{0.5, 0, 2}}, {},
		{Arena: "xGETyGET", Offsets: []uint32{1, 4, 5, 8}}}); err != nil {
		t.Fatal(err)
	}
	if &tbl.data[0].Ints[0] != &ints[0] {
		t.Error("an empty table copied the ints it could adopt")
	}
	if err := tbl.AppendColumns(2, []ColumnData{{}, {}, {Ints: []int64{7, 8}}, {}}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for r := 0; r < tbl.Rows(); r++ {
		got = append(got, fmt.Sprintf("%d %g %d %q", tbl.Int(0, r), tbl.Float(1, r), tbl.TimeMicros(2, r), tbl.Str(3, r)))
	}
	if want := `[1 0.5 0 "GET" 2 0 0 "y" 3 2 0 "GET" 0 0 7 "" 0 0 8 ""]`; fmt.Sprint(got) != want {
		t.Errorf("rows %q, want %q", fmt.Sprint(got), want)
	}
	if tbl.SealedRows() != 4 {
		t.Errorf("%d rows sealed, want one segment of 4", tbl.SealedRows())
	}
	for _, bad := range [][]ColumnData{
		{{Ints: []int64{1}}, {}, {}, {}},                        // 1 cell of 2
		{{Floats: []float64{1, 2}}, {}, {}, {}},                 // floats for ints
		{{}, {}, {}, {Arena: "ab", Offsets: []uint32{0, 1, 3}}}, // past the arena
		{{}, {}, {}}, // a column short
	} {
		if err := tbl.AppendColumns(2, bad); err == nil {
			t.Errorf("AppendColumns(%+v) accepted", bad)
		}
	}
	if tbl.Rows() != 5 {
		t.Errorf("%d rows after refused appends, want 5", tbl.Rows())
	}
}
