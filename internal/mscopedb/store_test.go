package mscopedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"github.com/gt-elba/milliscope/internal/retry"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// tinyStore returns options that force spilling after a handful of rows,
// so unit-scale corpora exercise the multi-segment machinery.
func tinyStore(sealRows int) StoreOptions {
	return StoreOptions{SealRows: sealRows, CompactTargetRows: sealRows * 8, CompactMinSegs: 3}
}

// fillEvents appends n synthetic event rows (10ms apart, monotonic time)
// to the named table, creating it on first use.
func fillEvents(t *testing.T, db *DB, table string, from, n int) *Table {
	t.Helper()
	cols := []Column{
		{Name: "ts", Type: TTime},
		{Name: "dev", Type: TString},
		{Name: "rt_us", Type: TInt},
		{Name: "util", Type: TFloat},
	}
	tbl, err := db.Table(table)
	if err != nil {
		tbl, err = db.Create(table, cols)
		if err != nil {
			t.Fatal(err)
		}
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := from; i < from+n; i++ {
		err := tbl.Append(
			base.Add(time.Duration(i)*10*time.Millisecond),
			fmt.Sprintf("dev%d", i%3),
			int64(1000+i),
			float64(i)/10,
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// assertTableEqual compares two tables cell for cell via the public
// accessors — the property every spill/reopen/compact path must keep.
func assertTableEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if want.Rows() != got.Rows() {
		t.Fatalf("%s: %d rows, want %d", got.Name(), got.Rows(), want.Rows())
	}
	wc, gc := want.Columns(), got.Columns()
	if len(wc) != len(gc) {
		t.Fatalf("%s: %d cols, want %d", got.Name(), len(gc), len(wc))
	}
	for ci := range wc {
		if wc[ci] != gc[ci] {
			t.Fatalf("%s: col %d is %+v, want %+v", got.Name(), ci, gc[ci], wc[ci])
		}
		for r := 0; r < want.Rows(); r++ {
			if wv, gv := want.Value(ci, r), got.Value(ci, r); wv != gv {
				t.Fatalf("%s.%s row %d: %v, want %v", got.Name(), wc[ci].Name, r, gv, wv)
			}
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	cols := []Column{
		{Name: "a", Type: TInt},
		{Name: "b", Type: TFloat},
		{Name: "c", Type: TTime},
		{Name: "d", Type: TString}, // low-cardinality → dictionary
		{Name: "e", Type: TString}, // high-cardinality → raw
	}
	n := segDictMaxCard + 100
	data := make([]colData, len(cols))
	for i := 0; i < n; i++ {
		data[0].Ints = append(data[0].Ints, int64(i*i-5000))
		data[1].Floats = append(data[1].Floats, float64(i)*1.5-7)
		data[2].Times = append(data[2].Times, int64(1491004800000000+i*250))
		data[3].Strs = append(data[3].Strs, fmt.Sprintf("dev%d", i%7))
		data[4].Strs = append(data[4].Strs, fmt.Sprintf("req-%08d", i))
	}
	img, zones, err := encodeSegment("ev", cols, data, n)
	if err != nil {
		t.Fatal(err)
	}
	if !zones[0].Has || zones[0].Min != -5000 || zones[0].Max != float64((n-1)*(n-1)-5000) {
		t.Fatalf("int zone = %+v", zones[0])
	}
	if zones[3].Has || zones[4].Has {
		t.Fatalf("string columns grew zones: %+v %+v", zones[3], zones[4])
	}
	got, rows, err := decodeSegment(img, "ev", cols)
	if err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("rows = %d, want %d", rows, n)
	}
	for i := 0; i < n; i++ {
		if got[0].Ints[i] != data[0].Ints[i] || got[1].Floats[i] != data[1].Floats[i] ||
			got[2].Times[i] != data[2].Times[i] || got[3].Strs[i] != data[3].Strs[i] ||
			got[4].Strs[i] != data[4].Strs[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}

	// The decoded dictionary column must share backing strings (one per
	// distinct value), like the in-memory interner.
	seen := map[string]*byte{}
	for i := range got[3].Strs {
		s := got[3].Strs[i]
		if len(s) == 0 {
			continue
		}
		p := unsafe.StringData(s) // only compared, never dereferenced
		if prev, ok := seen[s]; ok && prev != p {
			t.Fatalf("dictionary value %q not shared", s)
		}
		seen[s] = p
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	cols := []Column{{Name: "a", Type: TInt}}
	data := []colData{{Ints: []int64{1, 2, 3}}}
	img, _, err := encodeSegment("x", cols, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), img...)
	flip[len(flip)/2] ^= 0xff
	if _, _, err := decodeSegment(flip, "x", cols); err == nil {
		t.Fatal("bit flip not detected")
	}
	if _, _, err := decodeSegment(img[:len(img)-3], "x", cols); err == nil {
		t.Fatal("truncation not detected")
	}
	if _, _, err := decodeSegment(img, "y", cols); err == nil {
		t.Fatal("table mismatch not detected")
	}
	if _, _, err := decodeSegment(img, "x", []Column{{Name: "a", Type: TFloat}}); err == nil {
		t.Fatal("schema mismatch not detected")
	}
	if _, _, err := encodeSegment("x", cols, data, 0); err == nil {
		t.Fatal("empty segment accepted")
	}
}

func TestSpillCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 100)
	if tbl.Segments() == 0 {
		t.Fatal("no auto-spill at 100 rows with SealRows=16")
	}
	if tbl.SealedRows()+16 < tbl.Rows()-16 {
		t.Fatalf("tail too large: %d sealed of %d", tbl.SealedRows(), tbl.Rows())
	}
	if err := db.RecordIngestAt("ev", "/logs/a.csv", 100, 4096, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	assertTableEqual(t, tbl, got)
	if off, ok := re.LatestIngestOffset("/logs/a.csv"); !ok || off != 4096 {
		t.Fatalf("ledger offset = %d,%v after reopen", off, ok)
	}
	if rows, ok := re.LatestIngestRows("/logs/a.csv"); !ok || rows != 100 {
		t.Fatalf("ledger rows = %d,%v after reopen", rows, ok)
	}
}

func TestUncommittedSpillDroppedOnReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 40)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Keep appending past several seal thresholds, then "crash" without a
	// checkpoint: the spilled-but-uncommitted segments must be swept and
	// the warehouse must reopen to exactly the checkpointed 40 rows.
	fillEvents(t, db, "ev", 40, 64)
	before, _ := filepath.Glob(filepath.Join(dir, "seg-*"))

	re, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 40 {
		t.Fatalf("reopened to %d rows, want the checkpointed 40", got.Rows())
	}
	after, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
	if len(after) >= len(before) {
		t.Fatalf("uncommitted segments not swept: %d files before, %d after", len(before), len(after))
	}
}

func TestTornTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 50)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves torn temp files and a half-written segment
	// that no manifest references; reopen must sweep all of them.
	for _, junk := range []string{"MANIFEST.json.tmp", "tail-99999999.seg.tmp", "tail-99999998.seg", "seg-99999999-ev.seg"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"MANIFEST.json.tmp", "tail-99999999.seg.tmp", "tail-99999998.seg", "seg-99999999-ev.seg"} {
		if _, err := os.Stat(filepath.Join(dir, junk)); !os.IsNotExist(err) {
			t.Fatalf("%s survived reopen", junk)
		}
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 50 {
		t.Fatalf("reopened to %d rows, want 50", got.Rows())
	}
}

func TestZoneMapPruning(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 200) // 10ms apart → 2s of data
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segs := tbl.Segments()
	if segs < 10 {
		t.Fatalf("only %d segments; want >= 10 for a meaningful pruning test", segs)
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)

	// A 100ms window overlaps ~1 of the 160ms segments.
	ResetScanStats()
	res, err := tbl.Select().Between("ts", base.Add(500*time.Millisecond), base.Add(600*time.Millisecond)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("window matched %d rows, want 11", res.Len())
	}
	scanned, pruned := ScanStats()
	if scanned+pruned != int64(segs) {
		t.Fatalf("scanned %d + pruned %d != %d segments", scanned, pruned, segs)
	}
	if scanned > 2 {
		t.Fatalf("scanned %d segments for a 100ms window; pruning is not working", scanned)
	}
	if pruned < int64(segs)-2 {
		t.Fatalf("pruned only %d of %d segments", pruned, segs)
	}

	// All-pruned query: a window before all data touches zero segments.
	ResetScanStats()
	res, err = tbl.Select().Between("ts", base.Add(-time.Hour), base.Add(-time.Minute)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("empty window matched %d rows", res.Len())
	}
	if scanned, _ := ScanStats(); scanned != 0 {
		t.Fatalf("scanned %d segments for an out-of-range window", scanned)
	}

	// Pruning applies to every numeric operator shape, not just Between.
	ResetScanStats()
	res, err = tbl.Select().Where("rt_us", OpGt, int64(1000+197)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("OpGt matched %d rows, want 2", res.Len())
	}
	if scanned, _ := ScanStats(); scanned > 1 {
		t.Fatalf("OpGt on monotonic column scanned %d segments", scanned)
	}

	// Zone maps must survive the manifest JSON round trip: a reopened
	// store prunes (and matches) exactly like the one that spilled.
	re, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	ResetScanStats()
	res, err = rt.Select().Between("ts", base.Add(500*time.Millisecond), base.Add(600*time.Millisecond)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("reopened window matched %d rows, want 11", res.Len())
	}
	scanned, pruned = ScanStats()
	if scanned > 2 || pruned < int64(segs)-2 {
		t.Fatalf("reopened store scanned %d / pruned %d of %d segments; zone maps lost in manifest round trip",
			scanned, pruned, segs)
	}
}

func TestSpilledQueryMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	spilled, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	mem := Open()
	st := fillEvents(t, spilled, "ev", 0, 150)
	mt := fillEvents(t, mem, "ev", 0, 150)
	if err := spilled.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)

	type mk func(*Table) *Query
	cases := map[string]mk{
		"all": func(t *Table) *Query { return t.Select() },
		"window": func(t *Table) *Query {
			return t.Select().Between("ts", base.Add(200*time.Millisecond), base.Add(900*time.Millisecond))
		},
		"str-eq":    func(t *Table) *Query { return t.Select().Where("dev", OpEq, "dev1") },
		"str-ne":    func(t *Table) *Query { return t.Select().Where("dev", OpNe, "dev0") },
		"combo":     func(t *Table) *Query { return t.Select().Where("util", OpGe, 5.0).Where("dev", OpEq, "dev2") },
		"order":     func(t *Table) *Query { return t.Select().OrderBy("rt_us", false).Limit(7) },
		"order-str": func(t *Table) *Query { return t.Select().OrderBy("dev", true).Limit(11) },
		"everything": func(t *Table) *Query {
			return t.Select().Where("rt_us", OpGe, int64(1020)).Between("ts", base, base.Add(time.Second)).OrderBy("ts", false).Limit(13)
		},
	}
	for name, make := range cases {
		want, err := make(mt).Rows()
		if err != nil {
			t.Fatalf("%s (mem): %v", name, err)
		}
		got, err := make(st).Rows()
		if err != nil {
			t.Fatalf("%s (spill): %v", name, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: %d rows, want %d", name, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			wr, gr := want.Row(i), got.Row(i)
			for c := range wr {
				if wr[c] != gr[c] {
					t.Fatalf("%s row %d col %d: %v, want %v", name, i, c, gr[c], wr[c])
				}
			}
		}
		// Window aggregation through the vectorized path must agree too.
		ws, err := want.WindowAgg("ts", 50*time.Millisecond, "rt_us", AggP99)
		if err != nil {
			t.Fatalf("%s (mem agg): %v", name, err)
		}
		gs, err := got.WindowAgg("ts", 50*time.Millisecond, "rt_us", AggP99)
		if err != nil {
			t.Fatalf("%s (spill agg): %v", name, err)
		}
		if len(ws.Values) != len(gs.Values) {
			t.Fatalf("%s: agg %d windows, want %d", name, len(gs.Values), len(ws.Values))
		}
		for i := range ws.Values {
			if ws.Values[i] != gs.Values[i] || ws.StartMicros[i] != gs.StartMicros[i] {
				t.Fatalf("%s: agg window %d differs", name, i)
			}
		}
	}
}

func TestSingleRowSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tbl.Segments() != 20 {
		t.Fatalf("%d segments with SealRows=1, want 20", tbl.Segments())
	}
	mem := Open()
	assertTableEqual(t, fillEvents(t, mem, "ev", 0, 20), tbl)

	re, err := OpenDir(dir, tinyStore(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	mt, _ := mem.Table("ev")
	assertTableEqual(t, mt, got)
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 128)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := tbl.Segments()
	if before < 8 {
		t.Fatalf("only %d segments before compaction", before)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := tbl.Segments()
	if after >= before {
		t.Fatalf("compaction did not reduce segments: %d -> %d", before, after)
	}
	mem := Open()
	want := fillEvents(t, mem, "ev", 0, 128)
	assertTableEqual(t, want, tbl)

	// Queries over the merged (time-overlapping) layout still match, and
	// the superseded input files are gone after the commit.
	base := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	res, err := tbl.Select().Between("ts", base.Add(100*time.Millisecond), base.Add(400*time.Millisecond)).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 31 {
		t.Fatalf("window after compaction matched %d rows, want 31", res.Len())
	}
	segFiles, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
	if len(segFiles) != after {
		t.Fatalf("%d segment files on disk for %d live segments", len(segFiles), after)
	}

	re, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	assertTableEqual(t, want, got)
}

func TestCrashMidCompactionReopens(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 128)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash in the widest window: merged segment written, swap and commit
	// never happen. The hook panics out of CompactOnce, leaving the store
	// directory exactly as a kill -9 would.
	compactTestHook = func(string) { panic("crash mid-compaction") }
	defer func() { compactTestHook = nil }()
	func() {
		defer func() { recover() }()
		db.CompactOnce()
		t.Fatal("hook did not fire")
	}()
	compactTestHook = nil

	re, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	mem := Open()
	assertTableEqual(t, fillEvents(t, mem, "ev", 0, 128), got)
	// And the abandoned merged file was swept.
	re2, _ := re.Table("ev")
	_ = re2
	segFiles, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
	if len(segFiles) != got.Segments() {
		t.Fatalf("%d files for %d segments after crash recovery", len(segFiles), got.Segments())
	}
}

// TestCompactionRacingWiden widens the column the compactor is about to
// merge, between its layout snapshot and its first segment read, as a
// concurrent Widen can: the merge must read each segment under the schema
// it was written in — or, once a commit has deleted the unspilled files,
// give the run up — and never fail or lose a row.
func TestCompactionRacingWiden(t *testing.T) {
	for _, commit := range []bool{false, true} {
		db, err := OpenDir(t.TempDir(), tinyStore(8))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.Create("ev", []Column{{Name: "n", Type: TInt}, {Name: "w", Type: TInt}})
		if err != nil {
			t.Fatal(err)
		}
		const rows = 64
		for i := 0; i < rows; i++ {
			if err := tbl.AppendRows([]Value{{Type: TInt, Int: int64(i)}, {Type: TInt, Int: int64(3 * i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		compactReadHook = func(string) {
			compactReadHook = nil
			if err := tbl.Widen("w", TFloat); err != nil {
				t.Error(err)
			}
			if commit {
				if err := db.Checkpoint(); err != nil {
					t.Error(err)
				}
			}
		}
		did, err := db.CompactOnce()
		compactReadHook = nil
		if err != nil || did {
			t.Fatalf("commit=%v: CompactOnce = %v, %v; want the run given up", commit, did, err)
		}
		next := 0
		err = tbl.Scan([]string{"n", "w"}, func(ch *Chunk) error {
			for r, n := range ch.Ints(0) {
				if n != int64(next) || ch.Floats(1)[r] != float64(3*next) {
					return fmt.Errorf("row %d holds n=%d w=%v", next, n, ch.Floats(1)[r])
				}
				next++
			}
			return nil
		})
		if err != nil || next != rows {
			t.Fatalf("commit=%v: scan delivered %d of %d rows, err %v", commit, next, rows, err)
		}
	}
}

func TestCompactionAfterSwapBeforeCommitReopens(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 128)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Merge + swap succeed but the process dies before any checkpoint:
	// the committed manifest still names the input files (deletion is
	// deferred to the next commit), so reopen sees the old layout intact.
	if did, err := db.CompactOnce(); err != nil || !did {
		t.Fatalf("CompactOnce = %v, %v", did, err)
	}
	mem := Open()
	want := fillEvents(t, mem, "ev", 0, 128)
	assertTableEqual(t, want, tbl) // merged layout serves reads

	re, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	assertTableEqual(t, want, got)
}

func TestWidenAndAddColumnUnspill(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	tbl := fillEvents(t, db, "ev", 0, 50)
	if tbl.Segments() == 0 {
		t.Fatal("expected spilled segments before widen")
	}
	if err := tbl.Widen("rt_us", TString); err != nil {
		t.Fatal(err)
	}
	if tbl.Segments() != 0 {
		t.Fatal("widen left stale segments")
	}
	if got := tbl.Str(tbl.ColIndex("rt_us"), 0); got != "1000" {
		t.Fatalf("widened cell = %q, want \"1000\"", got)
	}
	if err := tbl.AddColumn(Column{Name: "extra", Type: TInt}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Int(tbl.ColIndex("extra"), 49); got != 0 {
		t.Fatalf("backfilled cell = %d, want 0", got)
	}
	// The widened table checkpoints and reopens with its new schema.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	assertTableEqual(t, tbl, got)
}

// tailFiles lists the store's tail files.
func tailFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "tail-*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTailCorruptionIsAnError: a flipped byte anywhere in the committed
// tail file is a SegmentError naming it at reopen, never a warehouse.
func TestTailCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 300) // every table sits below SealRows
	if err := db.RecordIngestAt("ev", "/logs/a.csv", 300, 4096, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 0 {
		t.Fatalf("%d segments; the test wants every row in the tail", len(segs))
	}
	tails := tailFiles(t, dir)
	if len(tails) != 1 {
		t.Fatalf("tail files %v, want one", tails)
	}
	clean, err := os.ReadFile(tails[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, StoreOptions{}); err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	for _, at := range []int{len(clean) / 3, len(clean) / 2, len(clean) - 7} {
		bad := append([]byte(nil), clean...)
		bad[at] ^= 0x01
		if err := os.WriteFile(tails[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDir(dir, StoreOptions{})
		var seg *SegmentError
		if !errors.As(err, &seg) || seg.File != filepath.Base(tails[0]) {
			t.Fatalf("byte %d of %d flipped: reopen returned %v, want a SegmentError naming %s",
				at, len(clean), err, filepath.Base(tails[0]))
		}
	}
	// A tail that lost its last bytes, or gained some, is one too.
	for _, bad := range [][]byte{clean[:len(clean)-1], append(append([]byte(nil), clean...), 0)} {
		if err := os.WriteFile(tails[0], bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var seg *SegmentError
		if _, err := OpenDir(dir, StoreOptions{}); !errors.As(err, &seg) {
			t.Fatalf("%d-byte tail of %d: reopen returned %v", len(bad), len(clean), err)
		}
	}
}

// TestOtherManifestVersionRefusedByName: a directory whose manifest is not
// version 2 (version 1, a gob tail beside it, is what earlier trees wrote)
// is an error naming the version it holds, never decoded as if it were, and
// opening it sweeps nothing.
func TestOtherManifestVersionRefusedByName(t *testing.T) {
	dir := t.TempDir()
	old := `{"version": 1, "seq": 28, "tail": "tail-00000028.gob", "tables": [{"name": "ev"}]}`
	for name, data := range map[string]string{manifestName: old, "tail-00000028.gob": "gob"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := OpenDir(dir, StoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "manifest version 1, want 2") {
		t.Fatalf("version-1 directory opened: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tail-00000028.gob")); err != nil {
		t.Fatalf("the refused directory was swept: %v", err)
	}
}

// TestCrashBetweenTailAndManifestReopensToPreviousCommit: the manifest
// rename is the commit point, so a checkpoint that wrote its tail file and
// then died leaves the previous commit, whole.
func TestCrashBetweenTailAndManifestReopensToPreviousCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 40)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed := tailFiles(t, dir)
	// The manifest's temp file cannot be created, so the second checkpoint
	// stops where a kill would: new tail durable, manifest untouched.
	blocker := blockManifest(t, dir)
	fillEvents(t, db, "ev", 40, 30)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded without a manifest")
	}
	if now := tailFiles(t, dir); len(now) != 2 {
		t.Fatalf("tail files %v, want the committed one and the orphan", now)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	mem := Open()
	assertTableEqual(t, fillEvents(t, mem, "ev", 0, 40), got)
	if now := tailFiles(t, dir); !slices.Equal(now, committed) {
		t.Fatalf("tail files after reopen %v, want %v", now, committed)
	}
}

// blockManifest makes the next manifest write fail at its create, until
// the returned path is removed.
func blockManifest(t *testing.T, dir string) string {
	t.Helper()
	blocker := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	return blocker
}

// TestCheckpointRetriesTransientCreate injects a flaky fs under Checkpoint:
// the manifest's first create fails, the retry lands it, and the transient
// error never surfaces.
func TestCheckpointRetriesTransientCreate(t *testing.T) {
	orig := fsRetry
	defer func() { fsRetry = orig }()
	dir := t.TempDir()
	db, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RecordIngestAt("t", "f.log", 7, 99, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	blocker := blockManifest(t, dir)
	slept := 0
	fsRetry = retry.Policy{Attempts: 4, Base: time.Millisecond, Sleep: func(time.Duration) {
		slept++
		os.Remove(blocker) // the "transient" condition clears during the first backoff
	}}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with one transient failure: %v", err)
	}
	if slept != 1 {
		t.Errorf("backed off %d times, want 1", slept)
	}
	re, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off, ok := re.LatestIngestOffset("f.log"); !ok || off != 99 {
		t.Errorf("LatestIngestOffset = %d,%v after the retried checkpoint, want 99,true", off, ok)
	}
}

// TestCheckpointPersistentFailureSurfaces proves the budget is bounded: a
// permanently failing fs exhausts the attempts and the last error comes
// back wrapped.
func TestCheckpointPersistentFailureSurfaces(t *testing.T) {
	orig := fsRetry
	defer func() { fsRetry = orig }()
	dir := t.TempDir()
	db, err := OpenDir(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blockManifest(t, dir)
	slept := 0
	fsRetry = retry.Policy{Attempts: 3, Base: time.Millisecond, Sleep: func(time.Duration) { slept++ }}
	if err := db.Checkpoint(); !errors.Is(err, syscall.EISDIR) {
		t.Fatalf("checkpoint error %v does not wrap the fs failure", err)
	}
	if slept != 2 {
		t.Errorf("backed off %d times, want 2 between the full 3 attempts", slept)
	}
}

func TestDropOrphansSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	fillEvents(t, db, "ev", 0, 64)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("ev"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segFiles, _ := filepath.Glob(filepath.Join(dir, "seg-*ev*"))
	if len(segFiles) != 0 {
		t.Fatalf("dropped table left %d segment files", len(segFiles))
	}
	re, err := OpenDir(dir, tinyStore(8))
	if err != nil {
		t.Fatal(err)
	}
	if re.HasTable("ev") {
		t.Fatal("dropped table resurrected after checkpoint")
	}
}

// TestWritePathSpans: a commit is one mscopedb/checkpoint span whose items
// are the tail rows it wrote, each segment carved one mscopedb/seal span of
// its rows, and the two byte counters add up to the files on disk.
func TestWritePathSpans(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, tinyStore(16))
	if err != nil {
		t.Fatal(err)
	}
	col := selfobs.Enable("write-path", time.Unix(0, 0))
	defer selfobs.Disable()
	fillEvents(t, db, "ev", 0, 40)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var seals, sealed, commits, tailRows, tailBytes, segBytes int64
	for _, r := range col.Snapshot() {
		switch r.Pipeline + "/" + r.Stage + "/" + r.Span {
		case "mscopedb/seal/-":
			seals, sealed = seals+1, sealed+r.Items
		case "mscopedb/checkpoint/-":
			commits, tailRows = commits+1, tailRows+r.Items
		case "mscopedb/checkpoint/tail_bytes":
			tailBytes = r.Items
		case "mscopedb/seal/segment_bytes":
			segBytes = r.Items
		}
	}
	if seals != 2 || sealed != 32 || commits != 1 || tailRows != 8 {
		t.Errorf("%d seal spans of %d rows and %d checkpoint spans of %d tail rows; want 2 of 32 and 1 of 8",
			seals, sealed, commits, tailRows)
	}
	var tailDisk, segDisk int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(e.Name(), "seg-"):
			segDisk += fi.Size()
		case strings.HasPrefix(e.Name(), "tail-"):
			tailDisk += fi.Size()
		}
	}
	if tailBytes != tailDisk || segBytes != segDisk || tailBytes == 0 || segBytes == 0 {
		t.Errorf("counters say %d tail and %d segment bytes, the directory holds %d and %d", tailBytes, segBytes, tailDisk, segDisk)
	}
}

// TestInstallCarvesInOnePass: installing a bulk-built table of many chunks
// allocates the segment images and one copy of what is left over — not a
// fresh copy of the whole remaining tail per chunk, which for n rows copied
// n²/(2·SealRows) row-cells (9.5 times a 20-chunk table).
func TestInstallCarvesInOnePass(t *testing.T) {
	const seal, chunks = 512, 20
	mem := Open()
	tbl := fillEvents(t, mem, "ev", 0, seal*chunks+seal/2)
	if err := mem.Drop("ev"); err != nil {
		t.Fatal(err)
	}
	want := fillEvents(t, Open(), "ev", 0, tbl.Rows())
	size := tbl.SizeBytes()
	db, err := OpenDir(t.TempDir(), tinyStore(seal))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Install(tbl); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if tbl.Segments() != chunks || tbl.SealedRows() != seal*chunks {
		t.Fatalf("%d segments of %d rows, want %d of %d", tbl.Segments(), tbl.SealedRows(), chunks, seal*chunks)
	}
	assertTableEqual(t, want, tbl)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Install allocated %d bytes for a table of %d", alloc, size)
	if alloc > size*3/2 {
		t.Errorf("Install allocated %d bytes for a table of %d: over 1.5 times", alloc, size)
	}
}
