package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// sameTable asserts two tables agree on schema and on every cell.
func sameTable(t *testing.T, got, want *mscopedb.Table) {
	t.Helper()
	gc, wc := got.Columns(), want.Columns()
	if fmt.Sprint(gc) != fmt.Sprint(wc) {
		t.Fatalf("table %s: schema %v, want %v", got.Name(), gc, wc)
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("table %s: %d rows, want %d", got.Name(), got.Rows(), want.Rows())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := range wc {
			// %#v tells -0.0 from 0.0 and keeps NaN comparable.
			if g, w := fmt.Sprintf("%#v", got.Value(c, r)), fmt.Sprintf("%#v", want.Value(c, r)); g != w {
				t.Fatalf("table %s row %d column %s: %s, want %s", got.Name(), r, wc[c].Name, g, w)
			}
		}
	}
}

// wholeFile loads entries the way the batch ingest does: infer the schema
// over all of them, then render and append each row.
func wholeFile(t *testing.T, name string, entries []mxml.Entry) *mscopedb.Table {
	t.Helper()
	inf := xmlcsv.NewInference()
	for _, e := range entries {
		inf.Observe(e)
	}
	cols := inf.Columns()
	tbl, err := mscopedb.NewTable(name, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := tbl.AppendStrings(xmlcsv.Row(e, cols)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func fields(kv ...string) mxml.Entry {
	var e mxml.Entry
	for i := 0; i < len(kv); i += 2 {
		e.Add(kv[i], kv[i+1])
	}
	return e
}

// appendRemote feeds entries to a remote engine as one wire batch stamped
// with the byte offset off, and waits for the loader to finish it.
func appendRemote(t *testing.T, rs *RemoteSource, entries []mxml.Entry, off int64) {
	t.Helper()
	done := make(chan struct{})
	b := wire.Batch{Offset: off}
	b.AppendEntries(entries)
	rs.AppendBatch(&b, func() { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("loader never finished the batch")
	}
}

func remoteEngine(t *testing.T, db *mscopedb.DB) (*Pipeline, *RemoteSource) {
	t.Helper()
	p, err := NewRemote(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	rs, off, err := p.OpenRemote("/node/apache_access.log", "apache_access.log")
	if err != nil || rs == nil || off != 0 {
		t.Fatalf("OpenRemote: %v %v %d", rs, err, off)
	}
	return p, rs
}

// TestEmptyFirstCellSettlesOnFirstValue: a column whose first cell is empty
// takes the type of its first value, as whole-file inference types it — it
// does not stay the string column it had to be created as.
func TestEmptyFirstCellSettlesOnFirstValue(t *testing.T) {
	for _, sealRows := range []int{0, 2} { // in memory, and with the empty cells already sealed
		entries := []mxml.Entry{
			fields("a", "1", "b", "", "c", ""),
			fields("a", "2", "b", ""),
			fields("a", "3", "b", "7", "c", ""),
			fields("a", "4", "b", "8.5"),
			fields("a", "5", "d", "", "d", "2017-04-01T00:00:12Z"),
		}
		want := wholeFile(t, "apache_event", entries)
		db := mscopedb.Open()
		if sealRows > 0 {
			var err error
			if db, err = mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: sealRows}); err != nil {
				t.Fatal(err)
			}
		}
		p, rs := remoteEngine(t, db)
		// Record by record, so the empty cells are in the table (and, with
		// a spill directory, in a segment) before the first value arrives.
		for _, e := range entries {
			appendRemote(t, rs, []mxml.Entry{e}, 0)
		}
		if err := p.Stop(); err != nil {
			t.Fatal(err)
		}
		got, err := db.Table("apache_event")
		if err != nil {
			t.Fatal(err)
		}
		if typ := got.Columns()[1].Type; typ != mscopedb.TFloat {
			t.Errorf("column b (\"\", \"\", 7, 8.5) is %v, want float", typ)
		}
		sameTable(t, got, want)
	}
}

// TestEmptyFirstCellResumes: "no value seen yet" survives a restart — the
// appender of a resumed session finds the all-empty column in the table.
func TestEmptyFirstCellResumes(t *testing.T) {
	entries := []mxml.Entry{fields("a", "1", "b", ""), fields("a", "2", "b", "7")}
	want := wholeFile(t, "apache_event", entries)
	db := mscopedb.Open()
	for _, e := range entries {
		p, err := NewRemote(Config{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		rs, _, err := p.OpenRemote("/node/apache_access.log", "apache_access.log")
		if err != nil || rs == nil {
			t.Fatalf("OpenRemote: %v %v", rs, err)
		}
		appendRemote(t, rs, []mxml.Entry{e}, 0)
		if err := p.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := db.Table("apache_event")
	sameTable(t, got, want)
}

// TestLiveMatchesBatchEmptyFirstCell is the same divergence end to end: a
// collectl CSV whose dirty-page gauge is blank in its first samples, tailed
// live and ingested whole, must load the same schema and cells.
func TestLiveMatchesBatchEmptyFirstCell(t *testing.T) {
	dir := t.TempDir()
	log := "#Date,Time,[CPU]User%,[MEM]Dirty\n" +
		"20170401,00:00:00.050,2.10,\n" +
		"20170401,00:00:00.100,2.04,\n" +
		"20170401,00:00:00.150,1.93,21\n" +
		"20170401,00:00:00.200,3.00,44\n"
	if err := os.WriteFile(filepath.Join(dir, "apache_collectl.csv"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	batch := mscopedb.Open()
	if _, err := transform.IngestDir(batch, dir, t.TempDir(), transform.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	pipe, err := New(Config{LogDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	want, err := batch.Table("apache_collectlcsv")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.DB().Table("apache_collectlcsv")
	if err != nil {
		t.Fatal(err)
	}
	if ci := want.ColIndex("mem_dirty"); ci < 0 || want.Columns()[ci].Type != mscopedb.TInt {
		t.Fatalf("batch schema %v: want mem_dirty int", want.Columns())
	}
	sameTable(t, got, want)
}

// TestSchemaEvolvesInsideOneBatch: widen int→float→string and add columns
// in the middle of a single batch, after part of the table has sealed to
// disk; the table must converge cell for cell on what whole-file inference
// and one typed load produce. (The values are ones a widening to string
// re-renders as written: Table.Widen has the numbers, not their text.)
func TestSchemaEvolvesInsideOneBatch(t *testing.T) {
	var entries []mxml.Entry
	for i := 0; i < 10; i++ {
		entries = append(entries, fields("n", fmt.Sprint(i), "m", fmt.Sprint(-i), "s", "x"))
	}
	entries = append(entries,
		fields("n", "2.5", "m", "10", "s", "y"),             // n: int → float
		fields("n", "11", "m", "12", "s", ""),               // an int into the float column
		fields("n", "1000.5", "m", "0.5", "s", "z"),         // m: int → float
		fields("n", "abc", "m", "1", "s", "x"),              // n: float → string, re-rendering what it held
		fields("n", "13", "m", "2", "s", "x", "extra", "7"), // a new column, zero-filled behind
		fields("m", "3", "extra", "-8", "late", ""),         // n absent; late arrives empty
		fields("n", "", "late", "2017-04-01T00:00:12.5Z"),   // late settles as a time
		fields("late", "2017-04-01T00:00:13Z", "s", "w", "tag", "t"),
	)
	for i := 0; i < 10; i++ {
		entries = append(entries, fields("n", fmt.Sprint(100+i), "m", "4", "s", "x", "extra", "8"))
	}
	if len(entries) > batchCap {
		t.Fatalf("%d entries do not fit one batch of %d", len(entries), batchCap)
	}
	want := wholeFile(t, "apache_event", entries)

	db, err := mscopedb.OpenDir(t.TempDir(), mscopedb.StoreOptions{SealRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, rs := remoteEngine(t, db)
	appendRemote(t, rs, entries, 0)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if got.SealedRows() == 0 {
		t.Fatal("nothing sealed: the test must evolve the schema over on-disk segments")
	}
	sameTable(t, got, want)
}

// TestStalledLoaderBoundsRecordsInFlight: with the loader held, what queues
// between the parsers and it is channelCap records plus at most one batch —
// counted in records by Status, QueueFill and the stall counter alike — and
// everything still loads once it is released.
func TestStalledLoaderBoundsRecordsInFlight(t *testing.T) {
	stage := stagedDBIO(t)
	bdb, _ := batchBaseline(t)
	const channelCap = 100
	pipe, err := New(Config{LogDir: stage, channelCap: channelCap})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	release := make(chan struct{})
	held := make(chan struct{})
	go pipe.WithDB(func(*mscopedb.DB) { close(held); <-release })
	<-held
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Status().Stalls == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Held, the queue only grows: each reading is a lower bound on the next.
	maxQueued := 0
	for i := 0; i < 50; i++ {
		q := pipe.Status().Queued
		if f := pipe.QueueFill(); f > 1 || f < min(1, float64(q)/channelCap) {
			t.Fatalf("QueueFill %v with %d of %d records queued", f, q, channelCap)
		}
		maxQueued = max(maxQueued, q)
		time.Sleep(time.Millisecond)
	}
	stalls := pipe.Status().Stalls
	close(release)
	if stalls == 0 {
		t.Error("no stall counted against a held loader")
	}
	if maxQueued < channelCap || maxQueued > channelCap+batchCap {
		t.Errorf("%d records queued against a held loader, want within [%d, %d]: the bound counts records, not batches",
			maxQueued, channelCap, channelCap+batchCap)
	}
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	compareRows(t, pipe.DB(), bdb)
}

// TestRemoteResumeSkipsInsideBatch: a reconnect re-ships everything past
// the last committed offset; the overlap the loader had already consumed
// ends in the middle of a batch and exactly those records are dropped.
func TestRemoteResumeSkipsInsideBatch(t *testing.T) {
	record := func(i int) mxml.Entry {
		us := 1491004800000000 + int64(i)*1000
		return fields("id", fmt.Sprintf("req-%04d", i), "ua", fmt.Sprint(us), "ud", fmt.Sprint(us+500))
	}
	var all []mxml.Entry
	for i := 0; i < 250; i++ {
		all = append(all, record(i))
	}
	want := wholeFile(t, "apache_event", all)

	db := mscopedb.Open()
	p, rs := remoteEngine(t, db)
	// 50 records committed at byte 5000, then 30 consumed but never
	// committed: they end short of a line boundary the agent can name, so
	// their batch re-stamps 5000, and the connection dies.
	appendRemote(t, rs, all[:50], 5000)
	appendRemote(t, rs, all[50:80], 5000)
	rs2, off, err := p.OpenRemote("/node/apache_access.log", "apache_access.log")
	if err != nil || rs2 == nil {
		t.Fatalf("reopen: %v %v", rs2, err)
	}
	if off != 5000 {
		t.Fatalf("resume offset %d, want the committed 5000", off)
	}
	// The agent re-ships from byte 5000 in one wire batch: 30 duplicates,
	// then 170 new records, split by the engine into loader batches of
	// batchCap — the skip ends 30 records into the first.
	appendRemote(t, rs2, all[50:], 25000)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
	if n, ok := db.LatestIngestRows("/node/apache_access.log"); !ok || n != int64(len(all)) {
		t.Errorf("ledger records %d consumed, want %d", n, len(all))
	}
}

// TestStopLeavesNoGoroutine: tail loop, parsers and loader are all joined
// by Stop, for a local session and for a remote one.
func TestStopLeavesNoGoroutine(t *testing.T) {
	stage := stagedDBIO(t)
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(5 * time.Millisecond)
			runtime.Gosched()
			if m := runtime.NumGoroutine(); m == n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	before := settle()
	pipe, err := New(Config{LogDir: stage})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	p, rs := remoteEngine(t, mscopedb.Open())
	appendRemote(t, rs, []mxml.Entry{fields("ua", "1", "ud", "2")}, 0)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if after := settle(); after > before {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%d goroutines before, %d after Stop:\n%s", before, after,
			strings.Join(strings.Split(string(buf), "\n\n")[1:], "\n\n"))
	}
}

// TestLoaderBatchSpans: the loader's telemetry is per batch — one
// live/append/batch span for each batch it takes, their items adding up to
// the rows appended, which is also what the row counter reads after one Add
// per batch.
func TestLoaderBatchSpans(t *testing.T) {
	stage := stagedDBIO(t)
	c := selfobs.Enable("live-batches", time.Unix(0, 0).UTC())
	defer selfobs.Disable()
	pipe, err := New(Config{LogDir: stage})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	selfobs.Disable()
	rows := pipe.Status().Rows
	var spans, items, errs, counted int64
	for _, r := range c.Snapshot() {
		if r.Pipeline != selfobs.PipeLive || r.Stage != "append" {
			continue
		}
		switch r.Kind {
		case "span":
			if r.Span != "batch" || r.Items > batchCap {
				t.Fatalf("append span %+v: want one span per batch of at most %d rows", r, batchCap)
			}
			spans++
			items += r.Items
			errs += r.Errs
		case "counter":
			counted = r.Items
		}
	}
	if items != rows || counted != rows || errs != 0 {
		t.Errorf("live/append/batch spans carry %d rows (%d degraded or skipped), counter %d; the session appended %d",
			items, errs, counted, rows)
	}
	t.Logf("%d rows in %d batches", rows, spans)
	if spans < rows/batchCap || spans > rows/8 {
		t.Errorf("%d batch spans for %d rows: a drain should fill most batches", spans, rows)
	}
}
