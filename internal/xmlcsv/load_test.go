package xmlcsv

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// convertFixture writes a five-entry document and converts it, returning
// the CSV and schema paths.
func convertFixture(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	var entries []mxml.Entry
	for range 5 {
		var e mxml.Entry
		e.Fields = append(e.Fields, mxml.Field{Name: "ts", Value: "2017-04-01T00:00:12.345Z", Hint: "time"})
		e.Add("reqid", "req-0000000001")
		e.Add("rt_us", "2123")
		e.Add("util", "33.5")
		entries = append(entries, e)
	}
	doc := writeDoc(t, dir, mxml.Meta{Source: "apache-event", Host: "apache", Table: "apache_event"}, entries)
	conv, err := ConvertFile(doc, dir)
	if err != nil {
		t.Fatal(err)
	}
	return conv.CSVPath, conv.SchemaPath
}

func TestLoadFile(t *testing.T) {
	csvPath, schemaPath := convertFixture(t)
	tbl, err := LoadFile(csvPath, schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "apache_event" || tbl.Rows() != 5 {
		t.Fatalf("loaded %s with %d rows", tbl.Name(), tbl.Rows())
	}
	cols := tbl.Columns()
	if cols[0].Type != mscopedb.TTime || cols[2].Type != mscopedb.TInt || cols[3].Type != mscopedb.TFloat {
		t.Fatalf("column types %+v", cols)
	}
}

func TestLoadFileHeaderMismatch(t *testing.T) {
	csvPath, schemaPath := convertFixture(t)
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if err := os.WriteFile(csvPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(csvPath, schemaPath); err == nil {
		t.Fatal("header mismatch accepted")
	}
}

func TestLoadFileMissingInputs(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadFile(filepath.Join(dir, "a.csv"), filepath.Join(dir, "a.schema.json")); err == nil {
		t.Fatal("missing schema accepted")
	}
}
