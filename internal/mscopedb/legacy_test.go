package mscopedb_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
)

// The legacy fixtures were written by the last tree that wrote them
// (testdata/legacy/README): one small trial as a whole-warehouse gob file
// and as a version-1 store directory (SealRows 16, so every data table has
// segments and a gob tail).
const (
	legacyGob   = "testdata/legacy/warehouse.gob"
	legacyStore = "testdata/legacy/store-v1"
)

var sixteen = mscopedb.StoreOptions{SealRows: 16}

// legacyDump is the canonical dump of the gob fixture: what every other
// form of the same trial has to equal.
func legacyDump(t *testing.T) string {
	t.Helper()
	db, err := mscopedb.Load(legacyGob)
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := db.LatestIngestOffset("/tmp/mscope-fixture/logs/apache_access.log"); !ok || off == 0 {
		t.Fatalf("ledger of the gob fixture not rebuilt: offset %d, %v", off, ok)
	}
	return dbtest.Dump(t, db)
}

// onlySegmentImages fails if the directory holds anything but the manifest
// and .seg files: nothing in a committed store is gob, or unchecksummed.
func onlySegmentImages(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "MANIFEST.json" && !strings.HasSuffix(n, ".seg") {
			t.Errorf("%s holds %s", dir, n)
		}
	}
}

// TestMigrateGobToSegments: the migration path of `mscope migrate-db` —
// Load, AttachStore, Checkpoint — turns the gob file an older tree saved
// into a store directory that reopens to the same warehouse.
func TestMigrateGobToSegments(t *testing.T) {
	want := legacyDump(t)
	loaded, err := mscopedb.Load(legacyGob)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := loaded.AttachStore(dir, sixteen); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := mscopedb.OpenDir(dir, sixteen)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := re.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Segments() != 1 || ev.SealedRows() != 16 || ev.Rows() != 22 {
		t.Fatalf("migration left %d segments and %d of %d rows sealed", ev.Segments(), ev.SealedRows(), ev.Rows())
	}
	dbtest.Same(t, "migrated store against the gob file", want, dbtest.Dump(t, re))
	onlySegmentImages(t, dir)

	// AttachStore refuses to double-attach or clobber an existing store.
	if err := re.AttachStore(t.TempDir(), mscopedb.StoreOptions{}); err == nil {
		t.Fatal("double attach accepted")
	}
	if err := mscopedb.Open().AttachStore(dir, mscopedb.StoreOptions{}); err == nil {
		t.Fatal("attach over an existing manifest accepted")
	}
}

// TestVersion1StoreUpgrades: a directory written before the tail became a
// segment image opens to the same warehouse as the gob fixture of the same
// logs, and its next checkpoint rewrites it as version 2 — the gob tail
// gone, the contents unchanged.
func TestVersion1StoreUpgrades(t *testing.T) {
	want := legacyDump(t)
	dir := t.TempDir() // a copy: opening sweeps, a checkpoint rewrites
	ents, err := os.ReadDir(legacyStore)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(legacyStore, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	db, err := mscopedb.OpenDir(dir, sixteen)
	if err != nil {
		t.Fatal(err)
	}
	dbtest.Same(t, "version-1 directory against the gob file", want, dbtest.Dump(t, db))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	onlySegmentImages(t, dir)
	man, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil || !strings.Contains(string(man), `"version": 2`) || !strings.Contains(string(man), `"tail": "tail-`) {
		t.Fatalf("manifest after the checkpoint (%v): %.120s", err, man)
	}
	if db, err = mscopedb.OpenDir(dir, sixteen); err != nil {
		t.Fatal(err)
	}
	dbtest.Same(t, "version-2 rewrite against the gob file", want, dbtest.Dump(t, db))
}
