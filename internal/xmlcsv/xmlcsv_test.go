package xmlcsv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// writeDoc builds an mxml file from entries.
func writeDoc(t *testing.T, dir string, meta mxml.Meta, entries []mxml.Entry) string {
	t.Helper()
	path := filepath.Join(dir, meta.Table+".mxml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := mxml.NewWriter(f)
	if err := w.Open(meta); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := w.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func entry(pairs ...string) mxml.Entry {
	var e mxml.Entry
	for i := 0; i+1 < len(pairs); i += 2 {
		e.Add(pairs[i], pairs[i+1])
	}
	return e
}

func TestSchemaInferenceTypes(t *testing.T) {
	dir := t.TempDir()
	var timed mxml.Entry
	timed.AddTyped("ts", "2017-04-01T00:00:12.345Z", "time")
	timed.Add("n", "42")
	timed.Add("f", "3.5")
	timed.Add("s", "hello")
	entries := []mxml.Entry{
		timed,
		entry("n", "7", "f", "2", "s", "9"), // f stays float (int ⊂ float); s mixes text+num → string
	}
	path := writeDoc(t, dir, mxml.Meta{Source: "x", Host: "h", Table: "t1"}, entries)
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]mscopedb.Type{}
	for _, c := range conv.Columns {
		types[c.Name] = c.Type
	}
	if types["ts"] != mscopedb.TTime {
		t.Fatalf("ts inferred %v", types["ts"])
	}
	if types["n"] != mscopedb.TInt {
		t.Fatalf("n inferred %v", types["n"])
	}
	if types["f"] != mscopedb.TFloat {
		t.Fatalf("f inferred %v (narrowest holding 3.5 and 2)", types["f"])
	}
	if types["s"] != mscopedb.TString {
		t.Fatalf("s inferred %v", types["s"])
	}
	if conv.Rows != 2 {
		t.Fatalf("rows %d", conv.Rows)
	}
}

func TestColumnUnionAndMissingCells(t *testing.T) {
	dir := t.TempDir()
	entries := []mxml.Entry{
		entry("a", "1"),
		entry("a", "2", "b", "x"),
		entry("b", "y", "c", "3.5"),
	}
	path := writeDoc(t, dir, mxml.Meta{Table: "t2"}, entries)
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Columns) != 3 {
		t.Fatalf("union has %d columns", len(conv.Columns))
	}
	// Column order follows first appearance.
	if conv.Columns[0].Name != "a" || conv.Columns[1].Name != "b" || conv.Columns[2].Name != "c" {
		t.Fatalf("column order %+v", conv.Columns)
	}
	data, err := os.ReadFile(conv.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines %d", len(lines))
	}
	if lines[1] != "1,," {
		t.Fatalf("row 1 = %q, want missing cells empty", lines[1])
	}
	if lines[3] != ",y,3.5" {
		t.Fatalf("row 3 = %q", lines[3])
	}
}

func TestIntTimeMixDegradesToString(t *testing.T) {
	dir := t.TempDir()
	var e1, e2 mxml.Entry
	e1.AddTyped("x", "2017-04-01T00:00:12.345Z", "time")
	e2.Add("x", "42")
	path := writeDoc(t, dir, mxml.Meta{Table: "t3"}, []mxml.Entry{e1, e2})
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Columns[0].Type != mscopedb.TString {
		t.Fatalf("time+int inferred %v, want string", conv.Columns[0].Type)
	}
}

func TestEmptyValuesDoNotWiden(t *testing.T) {
	dir := t.TempDir()
	entries := []mxml.Entry{
		entry("n", "1"),
		entry("n", ""),
		entry("n", "3"),
	}
	path := writeDoc(t, dir, mxml.Meta{Table: "t4"}, entries)
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Columns[0].Type != mscopedb.TInt {
		t.Fatalf("empty cells widened type to %v", conv.Columns[0].Type)
	}
}

func TestDashTimestampsMakeStringColumn(t *testing.T) {
	// The ds/dr fields are micros ints or "-": must infer string, the
	// narrowest type storing both.
	dir := t.TempDir()
	entries := []mxml.Entry{
		entry("ds", "1491004812345678"),
		entry("ds", "-"),
	}
	path := writeDoc(t, dir, mxml.Meta{Table: "t5"}, entries)
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Columns[0].Type != mscopedb.TString {
		t.Fatalf("int+dash inferred %v", conv.Columns[0].Type)
	}
}

func TestSchemaSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeDoc(t, dir, mxml.Meta{Source: "sar", Host: "db1", Table: "db1_sar"},
		[]mxml.Entry{entry("user", "12.5")})
	conv, err := ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	schema, cols, err := ReadSchema(conv.SchemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Table != "db1_sar" || schema.Host != "db1" || schema.Source != "sar" {
		t.Fatalf("schema meta %+v", schema)
	}
	if len(cols) != 1 || cols[0] != (mscopedb.Column{Name: "user", Type: mscopedb.TFloat}) {
		t.Fatalf("schema cols %+v", cols)
	}
}

func TestWidenLattice(t *testing.T) {
	const unknown = mscopedb.Type(0)
	cases := []struct {
		a, b, want mscopedb.Type
	}{
		{unknown, mscopedb.TInt, mscopedb.TInt},
		{mscopedb.TInt, unknown, mscopedb.TInt},
		{mscopedb.TInt, mscopedb.TInt, mscopedb.TInt},
		{mscopedb.TInt, mscopedb.TFloat, mscopedb.TFloat},
		{mscopedb.TFloat, mscopedb.TInt, mscopedb.TFloat},
		{mscopedb.TInt, mscopedb.TTime, mscopedb.TString},
		{mscopedb.TTime, mscopedb.TFloat, mscopedb.TString},
		{mscopedb.TTime, mscopedb.TTime, mscopedb.TTime},
		{mscopedb.TString, mscopedb.TInt, mscopedb.TString},
	}
	for _, c := range cases {
		if got := Widen(c.a, c.b); got != c.want {
			t.Fatalf("Widen(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Widen is commutative and idempotent over the whole lattice.
func TestWidenProperties(t *testing.T) {
	states := []mscopedb.Type{0, mscopedb.TInt, mscopedb.TFloat, mscopedb.TTime, mscopedb.TString}
	f := func(ai, bi uint8) bool {
		a := states[int(ai)%len(states)]
		b := states[int(bi)%len(states)]
		return Widen(a, b) == Widen(b, a) && Widen(a, a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeCell(t *testing.T) {
	cases := []struct {
		v, hint string
		want    mscopedb.Type
	}{
		{"", "", 0},
		{"42", "", mscopedb.TInt},
		{"-17", "", mscopedb.TInt},
		{"3.5", "", mscopedb.TFloat},
		{"2017-04-01T00:00:12.345Z", "time", mscopedb.TTime},
		{"2017-04-01T00:00:12.345Z", "", mscopedb.TTime},
		{"hello", "", mscopedb.TString},
		{"not-a-time", "time", mscopedb.TString},
		{"42", "time", mscopedb.TString},
	}
	for _, c := range cases {
		if got := TypeCell(c.v, c.hint); got.Type != c.want || got.Str != c.v {
			t.Fatalf("TypeCell(%q,%q) = %+v, want type %v", c.v, c.hint, got, c.want)
		}
	}
}
