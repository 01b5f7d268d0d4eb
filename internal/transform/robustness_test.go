package transform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/parsers"
)

// writeLogDir materializes a log directory from name→content.
func writeLogDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodApacheLine = `10.1.0.1 - - [01/Apr/2017:00:00:12.345 +0000] "GET /rubbos/ViewStory?ID=req-0000000001 HTTP/1.1" 200 100 D=2123 UA=1491004812345678 UD=1491004812347801 DS=1491004812346000 DR=1491004812347500`

// TestIngestCorruptLineFailsWithLocation: a corrupt line mid-file must
// fail the ingest with the file and line number in the error — silent
// record dropping would corrupt every downstream queue count.
func TestIngestCorruptLineFailsWithLocation(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		"apache_access.log": goodApacheLine + "\nGARBAGE LINE\n" + goodApacheLine + "\n",
	})
	db := mscopedb.Open()
	_, err := IngestDir(db, dir, t.TempDir(), DefaultPlan())
	if err == nil {
		t.Fatal("corrupt line ingested silently")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
	if !strings.Contains(err.Error(), "apache_access.log") {
		t.Fatalf("error lacks file name: %v", err)
	}
}

// TestIngestTruncatedMySQLRecord: a slow-log record cut mid-group fails
// loudly.
func TestIngestTruncatedMySQLRecord(t *testing.T) {
	content := "/usr/sbin/mysqld, Version: 5.5.49-log\nTcp port: 3306\nTime Id Command Argument\n" +
		"# Time: 2017-04-01T00:00:12.345678Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n"
	dir := writeLogDir(t, map[string]string{"mysql_slow.log": content})
	db := mscopedb.Open()
	_, err := IngestDir(db, dir, t.TempDir(), DefaultPlan())
	if err == nil {
		t.Fatal("truncated record ingested silently")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not mention truncation: %v", err)
	}
}

// TestIngestUnknownFilesSkippedNotFailed: artifacts outside the
// declaration (network traces, notes) are reported, not fatal.
func TestIngestUnknownFilesSkipped(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		"apache_access.log": goodApacheLine + "\n",
		"trace.csv":         "conn,src,dst\n",
		"NOTES.txt":         "operator notes\n",
	})
	db := mscopedb.Open()
	rep, err := IngestDir(db, dir, t.TempDir(), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 2 {
		t.Fatalf("skipped %v", rep.Skipped)
	}
	if len(rep.Files) != 1 {
		t.Fatalf("transformed %d files", len(rep.Files))
	}
}

// TestIngestEmptyLogFileFails: an empty log means a monitor died; the
// converter refuses documents with no fields.
func TestIngestEmptyLogFileFails(t *testing.T) {
	dir := writeLogDir(t, map[string]string{"apache_access.log": ""})
	db := mscopedb.Open()
	if _, err := IngestDir(db, dir, t.TempDir(), DefaultPlan()); err == nil {
		t.Fatal("empty log ingested silently")
	}
}

// TestIngestDuplicateTableCollision: two files mapping to the same table
// (e.g. a copied log) must fail on the second create, not overwrite.
func TestIngestDuplicateTableCollision(t *testing.T) {
	// Both names match *_access.log and share the host prefix "apache".
	dir := writeLogDir(t, map[string]string{
		"apache_access.log": goodApacheLine + "\n",
	})
	// Second directory entry with same host and suffix → same table name.
	if err := os.WriteFile(filepath.Join(dir, "apache_old_access.log"),
		[]byte(goodApacheLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := mscopedb.Open()
	_, err := IngestDir(db, dir, t.TempDir(), DefaultPlan())
	if err == nil {
		t.Fatal("table collision ingested silently")
	}
	if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("collision error: %v", err)
	}
}

// TestIngestBadParserName surfaces registry misconfiguration in a plan
// built in code (LoadPlan rejects it up front for plans read from disk).
func TestIngestBadParserName(t *testing.T) {
	dir := writeLogDir(t, map[string]string{"x.log": "data\n"})
	plan := &Plan{Bindings: []Binding{{Glob: "*", Parser: "nope", TableSuffix: "t"}}}
	if _, err := IngestDir(mscopedb.Open(), dir, t.TempDir(), plan); err == nil {
		t.Fatal("unknown parser accepted")
	}
}

// TestCustomPlanBinding: a user-supplied declaration routes an unusual
// file name to the right parser.
func TestCustomPlanBinding(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		"weird-name.txt": "alpha 1\nbeta 2\n",
	})
	plan := &Plan{Bindings: []Binding{{
		Glob: "weird-*.txt", Parser: "token",
		Instructions: instrWith(`^(?P<name>\w+) (?P<n>\d+)$`),
		Source:       "custom", TableSuffix: "custom", Host: "node9",
	}}}
	db := mscopedb.Open()
	rep, err := IngestDir(db, dir, t.TempDir(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Files) != 1 || rep.Files[0].Table != "node9_custom" {
		t.Fatalf("files %+v", rep.Files)
	}
	tbl, err := db.Table("node9_custom")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Fatalf("rows %d", tbl.Rows())
	}
}

// instrWith builds token instructions with the given pattern.
func instrWith(pattern string) parsers.Instructions {
	return parsers.Instructions{Pattern: pattern}
}
