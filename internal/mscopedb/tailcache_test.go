package mscopedb_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// tailFile is the committed tail file's name and bytes.
func tailFile(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "tail-*.seg"))
	if err != nil || len(names) != 1 {
		t.Fatalf("tail files in %s: %v, %v", dir, names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return names[0], raw
}

// reopenedCopy opens a copy of a committed directory — a process that
// holds no cached image — checks it dumps like the live warehouse, and
// returns the tail file a commit of it encodes from nothing.
func reopenedCopy(t *testing.T, dir string, live *mscopedb.DB, opts mscopedb.StoreOptions) []byte {
	t.Helper()
	cp := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := mscopedb.OpenDir(cp, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	dbtest.Same(t, "reopened against live", dbtest.Dump(t, live), dbtest.Dump(t, re))
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, raw := tailFile(t, cp)
	return raw
}

// TestCheckpointReusesUnchangedTails is the sequencer's commit pattern:
// twelve small tables installed one by one, each followed by its ledger row
// and a commit. A commit encodes the tails that changed — the new table and
// the ledger — and reuses the image of every other, so the bytes encoded
// stay near the final tail file's size (all twelve re-encoded at every
// commit is 6.5 times that); each commit's tail file is byte for byte what
// encoding everything afresh gives; and a commit with nothing to make
// durable touches no file.
func TestCheckpointReusesUnchangedTails(t *testing.T) {
	opts := mscopedb.StoreOptions{SealRows: 1 << 12}
	dir := t.TempDir()
	db, err := mscopedb.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	col := selfobs.Enable("tail-reuse", time.Unix(0, 0))
	defer selfobs.Disable()
	counter := func(name string) int64 {
		for _, r := range col.Snapshot() {
			if r.Pipeline+"/"+r.Stage+"/"+r.Span == "mscopedb/checkpoint/"+name {
				return r.Items
			}
		}
		return 0
	}
	var encoded, written int64 // by this warehouse's commits, not the reopened copies'
	for k := 0; k < 12; k++ {
		name := fmt.Sprintf("t%02d", k)
		ints, strs := make([]int64, 300), make([]string, 300)
		for i := range ints {
			ints[i], strs[i] = int64(k*1000+i), fmt.Sprintf("req-%d-%d", k, i)
		}
		tbl, err := mscopedb.NewTable(name, []mscopedb.Column{{Name: "n", Type: mscopedb.TInt}, {Name: "id", Type: mscopedb.TString}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendColumns(len(ints), []mscopedb.ColumnData{{Ints: ints}, textColumn(strs)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Install(tbl); err != nil {
			t.Fatal(err)
		}
		if err := db.RecordIngestAt(name, "/logs/"+name, 300, 4096, time.Unix(0, 0).UTC()); err != nil {
			t.Fatal(err)
		}
		encoded, written = encoded-counter("tail_bytes_encoded"), written-counter("tail_bytes")
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		encoded, written = encoded+counter("tail_bytes_encoded"), written+counter("tail_bytes")
		_, committed := tailFile(t, dir)
		if fresh := reopenedCopy(t, dir, db, opts); string(fresh) != string(committed) {
			t.Fatalf("commit %d: tail file differs from a fresh encode of the same warehouse", k)
		}
	}
	_, final := tailFile(t, dir)
	t.Logf("twelve commits wrote %d tail bytes and encoded %d of them; the final tail file is %d", written, encoded, len(final))
	if encoded == 0 || encoded > 2*int64(len(final)) {
		t.Errorf("%d tail bytes encoded, want at most twice the final tail file's %d", encoded, len(final))
	}

	manifest := filepath.Join(dir, "MANIFEST.json")
	before, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	was, _ := os.ReadFile(manifest)
	time.Sleep(10 * time.Millisecond) // a rewrite would show in the mtime
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := os.ReadFile(manifest); string(now) != string(was) || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("a commit with nothing changed rewrote the manifest (mtime %v -> %v)", before.ModTime(), after.ModTime())
	}
}

// TestTailCacheNeverStale drives one table through random interleavings of
// everything that changes a tail or a schema — appends (which spill),
// Widen, Retype, AddColumn (which unspill), compaction — with commits in
// between, some of them reopening the directory: whatever a commit reused,
// the directory reopens to the live table.
func TestTailCacheNeverStale(t *testing.T) {
	opts := mscopedb.StoreOptions{SealRows: 16, CompactTargetRows: 128, CompactMinSegs: 3}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			db, err := mscopedb.OpenDir(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := db.Create("ev", []mscopedb.Column{{Name: "n", Type: mscopedb.TInt}, {Name: "s", Type: mscopedb.TString}})
			if err != nil {
				t.Fatal(err)
			}
			// A second table nothing touches after its first rows: its image
			// is reused by every later commit.
			idle, err := db.Create("idle", []mscopedb.Column{{Name: "n", Type: mscopedb.TInt}})
			if err != nil {
				t.Fatal(err)
			}
			if err := idle.AppendRows([]mscopedb.Value{{Type: mscopedb.TInt, Int: 7}, {Type: mscopedb.TInt, Int: 8}}); err != nil {
				t.Fatal(err)
			}
			empty := map[string]bool{"s": true} // string columns still holding only empty cells
			next := 0
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 120; step++ {
				cols := tbl.Columns()
				c := cols[rng.Intn(len(cols))]
				switch op := rng.Intn(12); {
				case op < 5:
					var cells []mscopedb.Value
					for r := rng.Intn(20) + 1; r > 0; r-- {
						next++
						for _, c := range cols {
							v := mscopedb.Value{Type: c.Type, Int: int64(next), Float: float64(next) / 4, Str: fmt.Sprint("v", next)}
							if empty[c.Name] {
								v = mscopedb.Value{}
							}
							cells = append(cells, v)
						}
					}
					must(tbl.AppendRows(cells))
				case op == 5 && c.Type == mscopedb.TInt:
					must(tbl.Widen(c.Name, mscopedb.TFloat))
				case op == 6 && c.Type != mscopedb.TString:
					must(tbl.Widen(c.Name, mscopedb.TString))
				case op == 7 && empty[c.Name]:
					must(tbl.Retype(c.Name, mscopedb.TInt))
					delete(empty, c.Name)
				case op == 8 && len(cols) < 8:
					add := mscopedb.Column{Name: fmt.Sprint("c", step), Type: mscopedb.Type(rng.Intn(4) + 1)}
					must(tbl.AddColumn(add))
					empty[add.Name] = add.Type == mscopedb.TString
				case op == 9:
					_, err := db.CompactOnce()
					must(err)
				case op == 10:
					must(db.Checkpoint())
				case op == 11:
					must(db.Checkpoint())
					re, err := mscopedb.OpenDir(dir, opts)
					must(err)
					dbtest.Same(t, fmt.Sprint("reopen at step ", step), dbtest.Dump(t, db), dbtest.Dump(t, re))
					if rng.Intn(2) == 0 { // carry on in the process that holds no image
						db = re
						tbl, err = db.Table("ev")
						must(err)
					}
				}
			}
			must(db.Checkpoint())
			re, err := mscopedb.OpenDir(dir, opts)
			must(err)
			dbtest.Same(t, "final reopen", dbtest.Dump(t, db), dbtest.Dump(t, re))
		})
	}
}

// textColumn lays strings end to end as AppendColumns takes a string column.
func textColumn(strs []string) mscopedb.ColumnData {
	d := mscopedb.ColumnData{Offsets: []uint32{0}}
	for _, s := range strs {
		d.Arena += s
		d.Offsets = append(d.Offsets, uint32(len(d.Arena)))
	}
	return d
}
