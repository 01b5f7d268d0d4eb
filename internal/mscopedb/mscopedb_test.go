package mscopedb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("ev", []Column{
		{Name: "ts", Type: TTime},
		{Name: "reqid", Type: TString},
		{Name: "rt_us", Type: TInt},
		{Name: "util", Type: TFloat},
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
		{0, "req-1", 5000, 10},
		{20 * time.Millisecond, "req-2", 7000, 20},
		{60 * time.Millisecond, "req-3", 90000, 95},
		{110 * time.Millisecond, "req-4", 6000, 15},
		{130 * time.Millisecond, "req-5", 4000, 12},
	}
	for _, r := range rows {
		if err := tbl.Append(base.Add(r.off), r.id, r.rt, r.u); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable("", []Column{{Name: "a", Type: TInt}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewTable("x", nil); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := NewTable("x", []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewTable("x", []Column{{Name: "a", Type: Type(9)}}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestAppendTypeMismatch(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.Append("not-a-time", "id", int64(1), 1.0); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := tbl.Append(time.Now()); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestAppendStrings(t *testing.T) {
	tbl, err := NewTable("x", []Column{
		{Name: "ts", Type: TTime},
		{Name: "n", Type: TInt},
		{Name: "f", Type: TFloat},
		{Name: "s", Type: TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendStrings([]string{"2017-04-01T00:00:12.345678Z", "42", "3.14", "hello"}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendStrings([]string{"", "", "", ""}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("rows %d", tbl.Rows())
	}
	if tbl.Int(1, 0) != 42 || tbl.Float(2, 0) != 3.14 || tbl.Str(3, 0) != "hello" {
		t.Fatal("values wrong")
	}
	wantUS := time.Date(2017, 4, 1, 0, 0, 12, 345678000, time.UTC).UnixMicro()
	if tbl.TimeMicros(0, 0) != wantUS {
		t.Fatalf("time micros %d, want %d", tbl.TimeMicros(0, 0), wantUS)
	}
	if tbl.Int(1, 1) != 0 || tbl.Str(3, 1) != "" {
		t.Fatal("empty cells not zero-valued")
	}
	if err := tbl.AppendStrings([]string{"x", "1", "1", "1"}); err == nil {
		t.Fatal("bad time accepted")
	}
}

func TestQueryFilters(t *testing.T) {
	tbl := sampleTable(t)
	res, err := tbl.Select().Where("rt_us", OpGt, int64(6000)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rt>6000 returned %d rows", res.Len())
	}
	res, err = tbl.Select().Where("reqid", OpEq, "req-3").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("string eq returned %d rows", res.Len())
	}
	ids, err := res.Strings("reqid")
	if err != nil || ids[0] != "req-3" {
		t.Fatalf("ids %v err %v", ids, err)
	}
}

func TestQueryBetweenTime(t *testing.T) {
	tbl := sampleTable(t)
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	res, err := tbl.Select().
		Between("ts", base.Add(10*time.Millisecond), base.Add(120*time.Millisecond)).
		Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("time range returned %d rows", res.Len())
	}
}

// rangeTestTable has duplicate and out-of-order timestamps, so a range
// query has to keep table order and every tie.
func rangeTestTable(t testing.TB, rows int) *Table {
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

// TestBetweenMatchesScan: every Between window, with and without extra
// predicates, selects exactly the rows a row-at-a-time check of the same
// bounds selects, in table order — also after appends and after a Widen of
// another column.
func TestBetweenMatchesScan(t *testing.T) {
	tbl := rangeTestTable(t, 2000)
	base := time.Unix(1_700_000_000, 0).UTC()
	check := func(label string, lo, hi time.Duration, extra bool) {
		t.Helper()
		q := tbl.Select().Between("ts", base.Add(lo), base.Add(hi))
		if extra {
			q = q.Where("tier", OpEq, "tomcat").Where("val", OpLt, int64(500))
		}
		res, err := q.Rows()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var want []int
		for r := 0; r < tbl.Rows(); r++ {
			ts := tbl.TimeMicros(0, r)
			in := ts >= base.Add(lo).UnixMicro() && ts <= base.Add(hi).UnixMicro()
			if extra {
				in = in && tbl.Str(2, r) == "tomcat" && tbl.Value(1, r).(int64) < 500
			}
			if in {
				want = append(want, r)
			}
		}
		if !slices.Equal(res.idx, want) {
			t.Fatalf("%s: query gave %d rows, scan %d rows\nquery %v\nscan  %v", label, len(res.idx), len(want), res.idx, want)
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
		check(fmt.Sprintf("between %v..%v", w.lo, w.hi), w.lo, w.hi, false)
		check(fmt.Sprintf("between+preds %v..%v", w.lo, w.hi), w.lo, w.hi, true)
	}
	// Appends between queries (the streaming shape) are seen by the next one.
	for i := 0; i < 500; i++ {
		ts := base.Add(time.Duration(600+i/2) * time.Millisecond)
		if err := tbl.Append(ts, int64(i), "apache"); err != nil {
			t.Fatal(err)
		}
	}
	check("after append", 590*time.Millisecond, 700*time.Millisecond, false)
	if err := tbl.Widen("val", TFloat); err != nil {
		t.Fatal(err)
	}
	check("after widen", 590*time.Millisecond, 700*time.Millisecond, false)
}

func TestQueryOrderLimit(t *testing.T) {
	tbl := sampleTable(t)
	res, err := tbl.Select().OrderBy("rt_us", false).Limit(2).Rows()
	if err != nil {
		t.Fatal(err)
	}
	rts, err := res.Ints("rt_us")
	if err != nil {
		t.Fatal(err)
	}
	if len(rts) != 2 || rts[0] != 90000 || rts[1] != 7000 {
		t.Fatalf("order/limit wrong: %v", rts)
	}
}

func TestQueryErrors(t *testing.T) {
	tbl := sampleTable(t)
	if _, err := tbl.Select().Where("nope", OpEq, int64(1)).Rows(); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := tbl.Select().Where("reqid", OpLt, "a").Rows(); err == nil {
		t.Fatal("string < accepted")
	}
	if _, err := tbl.Select().Where("rt_us", OpEq, "str").Rows(); err == nil {
		t.Fatal("string predicate on int column accepted")
	}
	if _, err := tbl.Select().OrderBy("nope", true).Rows(); err == nil {
		t.Fatal("unknown order column accepted")
	}
}

func TestWindowAgg(t *testing.T) {
	tbl := sampleTable(t)
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.WindowAgg("ts", 50*time.Millisecond, "rt_us", AggMax)
	if err != nil {
		t.Fatal(err)
	}
	// Rows at 0,20 | 60 | 110,130 → 3 windows: max 7000, 90000, 6000.
	if len(s.Values) != 3 {
		t.Fatalf("%d windows: %+v", len(s.Values), s)
	}
	want := []float64{7000, 90000, 6000}
	for i, w := range want {
		if s.Values[i] != w {
			t.Fatalf("window %d = %v, want %v", i, s.Values[i], w)
		}
	}
	c, err := res.WindowAgg("ts", 50*time.Millisecond, "", AggCount)
	if err != nil {
		t.Fatal(err)
	}
	if c.Values[0] != 2 || c.Values[1] != 1 || c.Values[2] != 2 {
		t.Fatalf("counts %v", c.Values)
	}
}

func TestWindowAggOnIntMicros(t *testing.T) {
	tbl, err := NewTable("x", []Column{
		{Name: "ua", Type: TInt},
		{Name: "v", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Append(int64(i*10_000), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Select().Rows()
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.WindowAgg("ua", 50*time.Millisecond, "v", AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Values) != 2 || s.Values[0] != 0+1+2+3+4 || s.Values[1] != 5+6+7+8+9 {
		t.Fatalf("int window agg: %+v", s)
	}
}

func TestAggregateFns(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 100}
	cases := map[AggFn]float64{
		AggAvg: 22, AggMax: 100, AggMin: 1, AggSum: 110, AggP99: 100,
	}
	for fn, want := range cases {
		if got := aggregate(fn, vals); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v = %v, want %v", fn, got, want)
		}
	}
	if aggregate(AggCount, vals) != 5 {
		t.Fatal("count wrong")
	}
	if aggregate(AggMax, nil) != 0 {
		t.Fatal("empty max not zero")
	}
}

func TestDBStaticTables(t *testing.T) {
	db := Open()
	names := db.TableNames()
	if len(names) != 4 {
		t.Fatalf("fresh db has %d tables", len(names))
	}
	id, err := db.RecordExperiment("fig2", time.Now().UTC(), 42, 1000, time.Minute, "read-write")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("experiment id %d", id)
	}
	if err := db.RecordNode(id, "apache", "web", 8, 200); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordMonitor(id, "apache", "collectl-csv", "/x.csv"); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordIngestAt("apache_event", "/x.log", 100, 0, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
}

func TestDBCreateDropTable(t *testing.T) {
	db := Open()
	if _, err := db.Create("t1", []Column{{Name: "a", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create("t1", []Column{{Name: "a", Type: TInt}}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if _, err := db.Table("t1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("t1"); err == nil {
		t.Fatal("dropped table still present")
	}
	if err := db.Drop(tableExperiments); err == nil {
		t.Fatal("static table drop accepted")
	}
}

// Property: query engine equals a naive filter for random int data.
func TestQueryMatchesNaiveProperty(t *testing.T) {
	f := func(vals []int16, threshold int16) bool {
		tbl, err := NewTable("p", []Column{{Name: "v", Type: TInt}})
		if err != nil {
			return false
		}
		naive := 0
		for _, v := range vals {
			if err := tbl.Append(int64(v)); err != nil {
				return false
			}
			if int64(v) > int64(threshold) {
				naive++
			}
		}
		res, err := tbl.Select().Where("v", OpGt, int64(threshold)).Rows()
		if err != nil {
			return false
		}
		return res.Len() == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScanFilter(b *testing.B) {
	tbl, err := NewTable("b", []Column{
		{Name: "ua", Type: TInt},
		{Name: "rt", Type: TInt},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		if err := tbl.Append(int64(i), int64(i%1000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tbl.Select().Where("rt", OpGt, int64(990)).Rows()
		if err != nil || res.Len() == 0 {
			b.Fatalf("err=%v len=%d", err, res.Len())
		}
	}
}

// BenchmarkBetweenInMemory is the range query the sorted column index used
// to serve: a 1 s window out of the 124k rows the 40 s benchmark corpus
// loads, on a table no store backs.
func BenchmarkBetweenInMemory(b *testing.B) {
	tbl := rangeTestTable(b, 124_000)
	base := time.Unix(1_700_000_000, 0).UTC()
	lo, hi := base.Add(20*time.Second), base.Add(21*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tbl.Select().Between("ts", lo, hi).Rows()
		if err != nil || res.Len() == 0 {
			b.Fatalf("err=%v len=%d", err, res.Len())
		}
	}
}

// TestInstallRefusesDuplicateTable: a built table cannot replace one the
// warehouse already holds under its name.
func TestInstallRefusesDuplicateTable(t *testing.T) {
	db := Open()
	if err := db.Install(sampleTable(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Install(sampleTable(t)); err == nil {
		t.Fatal("duplicate install accepted")
	}
}
