package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/promfmt"
)

// queryResult is the /api/query and /api/window body as encoding/json
// writes it from a struct, and as a client decodes it.
type queryResult struct {
	Cols []string   `json:"cols"`
	Rows [][]string `json:"rows"`
}

// oracleRows renders an output's rows the way the body once did before it
// was encoded: a tabular output's Rows as they are; a window's every cell
// a string of its own, the start by strconv.FormatInt and the value by
// strconv.FormatFloat, and no rows at all (nil) when there are no cells.
func oracleRows(out *mql.Output) [][]string {
	if out.Series == nil && out.Groups == nil {
		return out.Rows
	}
	var rows [][]string
	add := func(key []string, s mscopedb.Series) {
		for i := range s.StartMicros {
			rows = append(rows, append(append([]string(nil), key...),
				strconv.FormatInt(s.StartMicros[i], 10),
				strconv.FormatFloat(s.Values[i], 'g', -1, 64)))
		}
	}
	if out.Series != nil {
		add(nil, *out.Series)
	}
	for _, g := range out.Groups {
		add([]string{g.Key}, g.Series)
	}
	return rows
}

// oracleBody is the body the server once wrote for an output: the struct
// encoded by promfmt.WriteJSON.
func oracleBody(cols []string, rows [][]string) []byte {
	rec := httptest.NewRecorder()
	promfmt.WriteJSON(rec, 200, queryResult{Cols: cols, Rows: rows})
	return rec.Body.Bytes()
}

// FuzzQueryBodyMatchesEncodingJSON: the body writer's bytes are the
// oracle's, for arbitrary tabular outputs — cells of any bytes (invalid
// UTF-8, U+2028, <>&, control bytes), nil and empty cols, rows and rows
// within — and for window outputs of a fuzzed table, grouped by a string
// column of any bytes or not, whose values are any float64 bits.
func FuzzQueryBodyMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte{0, 2, 3, 2, 4, 2, 2, 3, 1, 0, 2, 1, 5}, "ab<c>&d e\x00f\xffg\"h\\i\tj")
	f.Add([]byte{0, 0, 1}, "")
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 0}, "x")
	f.Add([]byte{1, 9, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "")
	f.Add([]byte{2, 3, 1, 0xff, 0xf8, 0, 0, 0, 0, 0, 1, 9, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 2, 4, 0x80, 0, 0, 0, 0, 0, 0, 0}, "k <\xfe")
	f.Fuzz(func(t *testing.T, shape []byte, text string) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		cell := func() string {
			n := min(next()%8, len(text))
			s := text[:n]
			text = text[n:]
			return s
		}
		strs := func(width int) []string {
			switch next() % 4 {
			case 0:
				return nil
			case 1:
				return []string{}
			}
			ss := make([]string, width)
			for i := range ss {
				ss[i] = cell()
			}
			return ss
		}
		var out *mql.Output
		switch next() % 3 {
		case 0: // tabular
			out = &mql.Output{Cols: strs(next() % 5)}
			if m := next() % 4; m > 0 {
				out.Rows = make([][]string, (m-1)*next()%6)
				for i := range out.Rows {
					out.Rows[i] = strs(next() % 5)
				}
			}
		default: // a window aggregation over a fuzzed table
			db := mscopedb.Open()
			tbl, err := db.Create("ev", []mscopedb.Column{
				{Name: "ts", Type: mscopedb.TInt},
				{Name: "v", Type: mscopedb.TFloat},
				{Name: "g", Type: mscopedb.TString},
			})
			if err != nil {
				t.Fatal(err)
			}
			for n := next() % 12; n > 0 && len(shape) >= 9; n-- {
				ts := int64(int8(next())) * 3
				v := math.Float64frombits(binary.LittleEndian.Uint64(shape))
				shape = shape[8:]
				if err := tbl.Append(ts, v, cell()); err != nil {
					t.Fatal(err)
				}
			}
			st := &mql.Statement{Table: "ev", Limit: -1, Windowed: true, Window: time.Duration(1+next()%40) * time.Microsecond,
				AggFn: mscopedb.AggFn(1 + next()%6), AggCol: "v", TimeCol: "ts"}
			if next()%2 == 0 {
				st.GroupCol = "g"
			}
			if out, err = mql.Exec(db, st); err != nil {
				t.Fatal(err)
			}
		}
		want := oracleBody(out.Cols, oracleRows(out))
		if got := appendQueryBody(nil, out); !bytes.Equal(got, want) {
			t.Fatalf("body differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}

// TestWindowBodiesMatchOracle holds every /api/window body to the oracle,
// on the smoke warehouse, for every fn over the full range, a from/to
// range, a by= group and a range holding no row. The oracle's output comes
// from the same aggregation asked in MQL text.
func TestWindowBodiesMatchOracle(t *testing.T) {
	s := smokeServer(t)
	h := s.Handler()
	tbl, err := s.cfg.DB.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select().OrderBy("ud", true).Limit(1).Rows()
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.Ints("ud")
	if err != nil || len(first) != 1 {
		t.Fatalf("first ud: %v %v", first, err)
	}
	from := first[0] + 2_000_000
	ranges := []struct{ name, params, where, group string }{
		{"full range", "", "", ""},
		{"from/to", fmt.Sprintf("&from=%d&to=%d", from, from+1_000_000), fmt.Sprintf(" WHERE ud >= %d AND ud < %d", from, from+1_000_000), ""},
		{"by group", "&by=method", "", " GROUP BY method"},
		{"empty range", "&from=1&to=2", " WHERE ud >= 1 AND ud < 2", ""},
	}
	for _, fn := range []string{"avg", "max", "min", "sum", "count", "p99"} {
		for _, r := range ranges {
			path := "/api/window?table=apache_event&value=rt_us&time=ud&window=50ms&fn=" + fn + r.params
			got := get(t, h, path, 200, nil).Body.Bytes()
			q := fmt.Sprintf("SELECT WINDOW 50ms %s(rt_us) BY ud FROM apache_event%s%s", fn, r.where, r.group)
			out, err := mql.Run(s.cfg.DB, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if want := oracleBody(out.Cols, oracleRows(out)); !bytes.Equal(got, want) {
				t.Errorf("%s %s: body of %d bytes differs from the oracle's %d", fn, r.name, len(got), len(want))
			}
			if r.name == "empty range" && !bytes.Contains(got, []byte(`"rows": null`)) {
				t.Errorf("%s over an empty range: %s", fn, got)
			}
		}
	}
	// /api/query's tabular body too.
	q := "SELECT reqid, uri, rt_us, ud FROM apache_event WHERE rt_us > 100000 ORDER BY rt_us DESC LIMIT 30"
	got := get(t, h, "/api/query?q="+url.QueryEscape(q), 200, nil).Body.Bytes()
	out, err := mql.Run(s.cfg.DB, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleBody(out.Cols, oracleRows(out)); !bytes.Equal(got, want) {
		t.Errorf("tabular body differs:\n got %s\nwant %s", got, want)
	}
}

// TestWindowBodyAllocsPerWindow: a warm full-range /api/window at 25 ms
// windows, twice as many as at 50 ms, makes no more allocations than at
// 50 ms plus a few: no cell costs an allocation of its own.
func TestWindowBodyAllocsPerWindow(t *testing.T) {
	h := smokeServer(t).Handler()
	allocs := func(window string) (float64, int) {
		path := "/api/window?table=apache_event&value=rt_us&time=ud&fn=max&window=" + window
		var body queryResult
		get(t, h, path, 200, &body) // warm
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		}), len(body.Rows)
	}
	fine, fineRows := allocs("25ms")
	coarse, coarseRows := allocs("50ms")
	if fineRows < 2*coarseRows-1 {
		t.Fatalf("%d windows at 25ms, %d at 50ms", fineRows, coarseRows)
	}
	t.Logf("%.0f allocations for %d windows at 25ms, %.0f for %d at 50ms", fine, fineRows, coarse, coarseRows)
	if fine > coarse+8 {
		t.Errorf("%.0f allocations for %d windows at 25ms, %.0f for %d at 50ms: the body allocates per window",
			fine, fineRows, coarse, coarseRows)
	}
}
