package importer

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// convertFixture builds an mxml doc and converts it, returning csv+schema
// paths.
func convertFixture(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.mxml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := mxml.NewWriter(f)
	if err := w.Open(mxml.Meta{Source: "apache-event", Host: "apache", Table: "apache_event"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var e mxml.Entry
		e.Fields = append(e.Fields, mxml.Field{Name: "ts", Value: "2017-04-01T00:00:12.345Z", Hint: "time"})
		e.Add("reqid", "req-0000000001")
		e.Add("rt_us", "2123")
		e.Add("util", "33.5")
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
	conv, err := xmlcsv.ConvertFile(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	return conv.CSVPath, conv.SchemaPath
}

func TestLoadFile(t *testing.T) {
	csvPath, schemaPath := convertFixture(t)
	db := mscopedb.Open()
	loaded, err := LoadFile(db, csvPath, schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Table != "apache_event" || loaded.Rows != 5 {
		t.Fatalf("loaded %+v", loaded)
	}
	tbl, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 5 {
		t.Fatalf("table rows %d", tbl.Rows())
	}
	cols := tbl.Columns()
	if cols[0].Type != mscopedb.TTime || cols[2].Type != mscopedb.TInt || cols[3].Type != mscopedb.TFloat {
		t.Fatalf("column types %+v", cols)
	}
	// Provenance recorded.
	ing, err := db.Table(mscopedb.TableIngests)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Rows() != 1 {
		t.Fatalf("ingest rows %d", ing.Rows())
	}
	if ing.Str(ing.ColIndex("tbl"), 0) != "apache_event" {
		t.Fatal("ingest provenance wrong")
	}
}

func TestLoadFileDuplicateTable(t *testing.T) {
	csvPath, schemaPath := convertFixture(t)
	db := mscopedb.Open()
	if _, err := LoadFile(db, csvPath, schemaPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(db, csvPath, schemaPath); err == nil {
		t.Fatal("duplicate load accepted")
	}
}

func TestLoadFileHeaderMismatch(t *testing.T) {
	csvPath, schemaPath := convertFixture(t)
	// Corrupt the CSV header.
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if err := os.WriteFile(csvPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db := mscopedb.Open()
	if _, err := LoadFile(db, csvPath, schemaPath); err == nil {
		t.Fatal("header mismatch accepted")
	}
}

func TestLoadFileMissingInputs(t *testing.T) {
	db := mscopedb.Open()
	dir := t.TempDir()
	if _, err := LoadFile(db, filepath.Join(dir, "a.csv"), filepath.Join(dir, "a.schema.json")); err == nil {
		t.Fatal("missing schema accepted")
	}
}
