package mql

import (
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// FuzzMQLParse: the parser never panics on arbitrary text, and a statement
// that parses either executes or errors — against an in-memory warehouse
// and against the same tables spilled into segments plus a tail — without
// a panic. `mscope serve` hands /api/query's q parameter straight to this.
func FuzzMQLParse(f *testing.F) {
	for _, q := range []string{
		"SELECT reqid, rt_us FROM apache_event WHERE rt_us > 100000 LIMIT 10",
		"SELECT * FROM apache_event WHERE util > 90 ORDER BY rt_us DESC",
		"SELECT WINDOW 50ms MAX(rt_us) BY ud FROM apache_event",
		"SELECT WINDOW 100ms AVG(util) BY ts FROM apache_event WHERE ts >= 2017-04-01T00:00:00Z",
		"SELECT WINDOW 50ms COUNT() BY ts FROM apache_event GROUP BY reqid",
		"SELECT WINDOW 1ns P99(rt_us) BY ud FROM apache_event",
		"SELECT WINDOW 1us SUM(rt_us) BY ud FROM apache_event",
		"SELECT a.reqid, b.ud FROM apache_event a JOIN apache_event b ON reqid WHERE a.rt_us >= 6000 LIMIT 3",
		"SELECT reqid FROM apache_event WHERE reqid = 'req-3' AND ud != -9223372036854775808",
		"SELECT WINDOW 9223372036854775807ns MIN(util) BY ud FROM apache_event",
		"SELECT",
		"",
	} {
		f.Add(q)
	}
	mem := testDB(f)
	spilled, err := mscopedb.OpenDir(f.TempDir(), mscopedb.StoreOptions{SealRows: 3})
	if err != nil {
		f.Fatal(err)
	}
	src, _ := mem.Table("apache_event")
	res, err := src.Select().Rows()
	if err != nil {
		f.Fatal(err)
	}
	dst, err := spilled.Create("apache_event", src.Columns())
	if err != nil {
		f.Fatal(err)
	}
	rows := make([][]string, res.Len())
	for _, c := range src.Columns() {
		cells, err := res.Render(c.Name)
		if err != nil {
			f.Fatal(err)
		}
		for r, cell := range cells {
			rows[r] = append(rows[r], cell)
		}
	}
	for _, row := range rows {
		if err := dst.AppendStrings(row); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, query string) {
		st, err := Parse(query)
		if err != nil {
			return
		}
		for _, db := range []*mscopedb.DB{mem, spilled} {
			_, _ = Exec(db, st)
		}
	})
}
