// Package dbtest is how tests compare warehouses: one canonical text dump
// of every table (schema and every cell), and one comparison that names
// the first place two dumps part.
package dbtest

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// Cells of a row are separated by sep; string cells are quoted, so none
// contains it.
const sep = "\x1f"

// Dump renders the warehouse: per table, in name order, a "== name" line,
// a header line of name:type columns, then one line per row, read with
// Table.Scan. Equal dumps mean equal tables, column types and cells — the
// ingest ledger included.
func Dump(t testing.TB, db *mscopedb.DB) string {
	t.Helper()
	var b strings.Builder
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cols := tbl.Columns()
		names := make([]string, len(cols))
		fmt.Fprintf(&b, "== %s\n", name)
		for i, c := range cols {
			names[i] = c.Name
			fmt.Fprintf(&b, "%s:%v%s", c.Name, c.Type, sep)
		}
		b.WriteByte('\n')
		err = tbl.Scan(names, func(ch *mscopedb.Chunk) error {
			for r := 0; r < ch.Rows(); r++ {
				for i, c := range cols {
					switch c.Type {
					case mscopedb.TInt:
						b.WriteString(strconv.FormatInt(ch.Ints(i)[r], 10))
					case mscopedb.TFloat:
						b.WriteString(strconv.FormatFloat(ch.Floats(i)[r], 'g', -1, 64))
					case mscopedb.TTime:
						b.WriteString(strconv.FormatInt(ch.Times(i)[r], 10))
					default:
						b.WriteString(strconv.Quote(ch.Strs(i)[r]))
					}
					b.WriteString(sep)
				}
				b.WriteByte('\n')
			}
			return nil
		})
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
	}
	return b.String()
}

// Same fails the test at the first table, row and column where two dumps
// differ; what names the pair in the failure.
func Same(t testing.TB, what, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	table, at := "(none)", 0 // the table being compared, and the line that named it
	for i, w := range wl {
		if strings.HasPrefix(w, "== ") {
			table, at = w[3:], i
		}
		if i < len(gl) && w == gl[i] {
			continue
		}
		g := "== (end of dump)"
		if i < len(gl) {
			g = gl[i]
		}
		switch {
		case strings.HasPrefix(w, "== ") || strings.HasPrefix(g, "== "):
			t.Fatalf("%s: after table %s: want %q, got %q", what, table, w, g)
		case i == at+1:
			t.Fatalf("%s: schema of %s:\n want %q\n got  %q", what, table, w, g)
		}
		names := strings.Split(wl[at+1], sep)
		wc, gc := strings.Split(w, sep), strings.Split(g, sep)
		for c := range wc {
			if wc[c] != gc[c] {
				t.Fatalf("%s: %s row %d column %s: want %s, got %s", what, table, i-at-2, names[c], wc[c], gc[c])
			}
		}
	}
	t.Fatalf("%s: got %d lines more than wanted, after table %s", what, len(gl)-len(wl), table)
}
