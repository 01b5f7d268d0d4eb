package mscopedb

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// renderAll renders every column of a result, row by row.
func renderAll(t *testing.T, r *Result) [][]string {
	t.Helper()
	out := make([][]string, r.Len())
	for _, c := range r.t.cols {
		cells, err := r.Render(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			out[i] = append(out[i], cell)
		}
	}
	return out
}

// TestOrderByNaN: NaN sorts after every number and ±Inf are ordinary
// values, so a float column holding them comes out in order, ascending and
// descending, limited or not, in memory and spilled (a store commits such a
// column, with no zone map).
func TestOrderByNaN(t *testing.T) {
	vals := []float64{1, math.NaN(), 0, 2, -1, math.Inf(-1), math.Inf(1)}
	mem := Open()
	spilled, err := OpenDir(t.TempDir(), tinyStore(2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		asc   bool
		limit int
		want  string
	}{
		{true, -1, "-Inf -1 0 1 2 +Inf NaN"},
		{false, -1, "NaN +Inf 2 1 0 -1 -Inf"},
		{false, 2, "NaN +Inf"},
		{false, 3, "NaN +Inf 2"},
		{true, 3, "-Inf -1 0"},
	}
	for _, db := range []*DB{mem, spilled} {
		tbl, err := db.Create("f", []Column{{Name: "v", Type: TFloat}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if err := tbl.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			res, err := tbl.Select().OrderBy("v", c.asc).Limit(c.limit).Rows()
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.Render("v")
			if err != nil {
				t.Fatal(err)
			}
			if g := strings.Join(got, " "); g != c.want {
				t.Errorf("segments=%d asc=%v limit %d: %s, want %s", tbl.Segments(), c.asc, c.limit, g, c.want)
			}
		}
	}
}

// TestLimitedScanStopsEarly: over a store of many segments of increasing
// ts, a top-k by ts and a bare LIMIT open at most one segment, whatever
// GOMAXPROCS, and count every segment they skip as pruned.
func TestLimitedScanStopsEarly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 150) // 9 segments + a 6-row tail
	mt := fillEvents(t, Open(), "ev", 0, 150)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs := int64(tbl.Segments())
	if segs < 8 {
		t.Fatalf("only %d segments", segs)
	}
	cases := []struct {
		name     string
		q        func(*Table) *Query
		maxOpens int64
	}{
		{"desc", func(t *Table) *Query { return t.Select().OrderBy("ts", false).Limit(5) }, 1},
		{"desc-past-tail", func(t *Table) *Query { return t.Select().OrderBy("ts", false).Limit(20) }, 1},
		{"asc", func(t *Table) *Query { return t.Select().OrderBy("rt_us", true).Limit(5) }, 1},
		{"limit", func(t *Table) *Query { return t.Select().Limit(5) }, 1},
	}
	for _, c := range cases {
		ResetScanStats()
		got, err := c.q(tbl).Rows()
		if err != nil {
			t.Fatal(err)
		}
		scanned, pruned := ScanStats()
		if scanned > c.maxOpens || scanned+pruned != segs {
			t.Errorf("%s: opened %d and pruned %d of %d segments, want <= %d opened and the rest pruned",
				c.name, scanned, pruned, segs, c.maxOpens)
		}
		if c.name == "limit" && scanned != 1 {
			t.Errorf("limit: opened %d segments, want 1", scanned)
		}
		want, err := c.q(mt).Rows()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderAll(t, got), renderAll(t, want); !slices.EqualFunc(g, w, slices.Equal) {
			t.Errorf("%s: spilled %q\nwant %q", c.name, g, w)
		}
	}
}

// fuzzFloats are the float cells a fuzzed table draws from: duplicates,
// both zeros, both infinities and NaN.
var fuzzFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, -1.5, 2, 2, 1e300}

// fuzzStrs are its string cells.
var fuzzStrs = []string{"", "a", "b", "ab", "B"}

var fuzzCols = []Column{
	{Name: "ts", Type: TTime},
	{Name: "i", Type: TInt},
	{Name: "f", Type: TFloat},
	{Name: "s", Type: TString},
}

// fuzzCell is column ci's cell for one fuzzed byte.
func fuzzCell(ci int, b byte) any {
	switch ci {
	case 0:
		return time.UnixMicro(1491004800000000 + int64(b%16)*1000).UTC()
	case 1:
		switch b {
		case 255: // equal to 1<<60 once coerced to float64
			return int64(1<<60 + 1)
		case 254:
			return int64(1 << 60)
		}
		return int64(b%8) - 3
	case 2:
		return fuzzFloats[int(b)%len(fuzzFloats)]
	default:
		return fuzzStrs[int(b)%len(fuzzStrs)]
	}
}

// renderCell renders a cell the way Result.Render does.
func renderCell(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case time.Time:
		return x.Format(mxml.TimeLayout)
	default:
		return x.(string)
	}
}

// orderCmp is the documented order of two cells of one column: numbers by
// value with NaN after every number, times by instant, strings bytewise.
func orderCmp(a, b any) int {
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		y := b.(float64)
		switch {
		case math.IsNaN(x) || math.IsNaN(y):
			return cmp.Compare(boolInt(math.IsNaN(x)), boolInt(math.IsNaN(y)))
		default:
			return cmp.Compare(x, y)
		}
	case time.Time:
		return x.Compare(b.(time.Time))
	default:
		return strings.Compare(x.(string), b.(string))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// oracleMatch is a predicate the naive way, on float64-coerced numbers.
func oracleMatch(v any, op Op, lit any) bool {
	if s, ok := v.(string); ok {
		return (s == lit.(string)) == (op == OpEq)
	}
	num := func(v any) float64 {
		switch x := v.(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		default:
			return float64(v.(time.Time).UnixMicro())
		}
	}
	a, b := num(v), num(lit)
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}

// FuzzQueryOrderLimit: a fuzzed table, spilled across tiny segments plus a
// tail, answers a fuzzed filter + ORDER BY + LIMIT statement with the same
// rows as the same table in memory and as a naive oracle: filter, stable
// sort under the documented order, truncate.
func FuzzQueryOrderLimit(f *testing.F) {
	// rows: 4 bytes a row (ts, i, f, s); q: seal rows, order, limit,
	// predicate count, then 3 bytes a predicate (column, op, value).
	f.Add([]byte("\x00\x01\x01\x01\x05\x02\x00\x02\x09\x03\x03\x03\x02\x04\x05\x04\x0f\x05\x06\x00\x01\x06\x07\x01"), []byte{2, 0x03, 3, 0})
	f.Add([]byte("\x00\x01\x00\x01\x05\x02\x00\x02\x09\x03\x03\x03\x02\x04\x05\x04\x0f\x05\x06\x00\x01\x06\x07\x01"), []byte{1, 0x82, 2, 1, 2, 1, 7})
	f.Add([]byte("\x03\xff\x02\x00\x03\xfe\x02\x01\x04\xff\x03\x02\x01\x00\x04\x03\x02\x07\x05\x04"), []byte{3, 0x02, 1, 2, 1, 5, 0, 3, 0, 1})
	f.Add([]byte("\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x05\x01\x01\x01\x01"), []byte{1, 0x00, 255, 0})
	f.Fuzz(func(t *testing.T, raw []byte, q []byte) {
		if len(q) < 4 {
			return
		}
		n := min(len(raw)/4, 48)
		rows := make([][]any, n)
		for r := range rows {
			for ci := range fuzzCols {
				rows[r] = append(rows[r], fuzzCell(ci, raw[4*r+ci]))
			}
		}
		spilled, err := OpenDir(t.TempDir(), tinyStore(1+int(q[0]%6)))
		if err != nil {
			t.Fatal(err)
		}
		mem := Open()
		var tables []*Table
		for _, db := range []*DB{spilled, mem} {
			tbl, err := db.Create("ev", fuzzCols)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if err := tbl.Append(row...); err != nil {
					t.Fatal(err)
				}
			}
			tables = append(tables, tbl)
		}
		if err := spilled.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		orderCol, asc := int(q[1]&0x7f)%(len(fuzzCols)+1)-1, q[1]&0x80 == 0
		limit := int(q[2] % 24)
		if q[2] == 255 {
			limit = -1
		}
		type oraclePred struct {
			col int
			op  Op
			lit any
		}
		var preds []oraclePred
		for p := q[4:]; len(p) >= 3 && len(preds) < int(q[3]%3); p = p[3:] {
			ci := int(p[0]) % len(fuzzCols)
			op := Op(1 + int(p[1])%6)
			if fuzzCols[ci].Type == TString {
				op = Op(1 + int(p[1])%2) // = or !=
			}
			preds = append(preds, oraclePred{ci, op, fuzzCell(ci, p[2])})
		}

		var want []int
		for r, row := range rows {
			ok := true
			for _, p := range preds {
				ok = ok && oracleMatch(row[p.col], p.op, p.lit)
			}
			if ok {
				want = append(want, r)
			}
		}
		if orderCol >= 0 {
			slices.SortStableFunc(want, func(a, b int) int {
				c := orderCmp(rows[a][orderCol], rows[b][orderCol])
				if !asc {
					c = -c
				}
				return c
			})
		}
		if limit >= 0 && len(want) > limit {
			want = want[:limit]
		}
		wantCells := make([][]string, len(want))
		for i, r := range want {
			for _, v := range rows[r] {
				wantCells[i] = append(wantCells[i], renderCell(v))
			}
		}

		for _, tbl := range tables {
			sel := tbl.Select()
			for _, p := range preds {
				sel = sel.Where(fuzzCols[p.col].Name, p.op, p.lit)
			}
			if orderCol >= 0 {
				sel = sel.OrderBy(fuzzCols[orderCol].Name, asc)
			}
			res, err := sel.Limit(limit).Rows()
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(t, res)
			if !slices.EqualFunc(got, wantCells, slices.Equal) {
				t.Fatalf("%d segments, order %d asc=%v limit %d, preds %v:\n got %q\nwant %q",
					tbl.Segments(), orderCol, asc, limit, preds, got, wantCells)
			}
		}
	})
}
