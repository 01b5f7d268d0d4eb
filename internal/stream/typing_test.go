package stream

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// The live engine types its records with the batch ingest's column builder,
// a block of at most batchCap records at a time. These tests hold it to the
// batch ingest's tables: cell for cell, and where a column changes type
// between blocks, from the block it last changed type in.

// liveTwoWays loads the streamable logs of dir live twice — tailed and
// drained by a local engine, and shipped to a remote engine as one wire
// batch per file of what the file's parser makes of it — and ingests them
// once in batch. It returns the three warehouses.
func liveTwoWays(t *testing.T, dir string, plan *transform.Plan) (local, remote, batch *mscopedb.DB) {
	t.Helper()
	batch = mscopedb.Open()
	if _, err := transform.IngestDirWithOptions(batch, dir, t.TempDir(), plan, transform.Options{}); err != nil {
		t.Fatal(err)
	}
	pipe, err := New(Config{LogDir: dir, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Start()
	if err := pipe.Stop(); err != nil {
		t.Fatal(err)
	}
	remote = mscopedb.Open()
	rp, err := NewRemote(Config{DB: remote, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	rp.Start()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !Streamable(plan, f.Name()) {
			continue
		}
		b, _ := plan.Find(f.Name())
		parser, err := parsers.Get(b.Parser)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var wb wire.Batch
		if err := parser.ParseRecords(bytes.NewReader(data), b.Instructions, wb.AppendRecord, nil); err != nil {
			t.Fatal(err)
		}
		wb.Offset = int64(len(data))
		rs, _, err := rp.OpenRemote(filepath.Join("/node", f.Name()), f.Name())
		if err != nil || rs == nil {
			t.Fatalf("OpenRemote %s: %v", f.Name(), err)
		}
		done := make(chan struct{})
		rs.AppendBatch(&wb, func() { close(done) })
		<-done
	}
	if err := rp.Stop(); err != nil {
		t.Fatal(err)
	}
	return pipe.DB(), remote, batch
}

func table(t *testing.T, db *mscopedb.DB, name string) *mscopedb.Table {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestLiveMatchesBatchNastyBytes: invalid UTF-8, XML-illegal runes and
// multi-byte runes in a URL load live as the batch ingest loads them —
// normalized to what its exported artifacts read back as.
func TestLiveMatchesBatchNastyBytes(t *testing.T) {
	nasty := []string{
		"/p\x80q",            // lone continuation byte
		"/a\xff\xfeb",        // invalid lead bytes
		"/bell\x01end",       // XML-illegal control char
		"/del\x7fok",         // legal control-adjacent byte
		"/caf\xc3\xa9/日",     // valid multi-byte runes
		"/truncated\xe6\x97", // truncated multi-byte rune
	}
	var b strings.Builder
	for i, u := range nasty {
		ua := simtime.Epoch.Add(time.Duration(i) * 3 * time.Millisecond)
		ud := ua.Add(time.Duration(i+1) * time.Millisecond)
		b.WriteString(logfmt.ApacheAccess("10.0.0.9", "GET", u, 200, 1000+i, ua, ud, ua.Add(500*time.Microsecond), ud))
		b.WriteByte('\n')
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "apache_access.log"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	local, remote, batch := liveTwoWays(t, dir, transform.DefaultPlan())
	want := table(t, batch, "apache_event")
	if got := want.Str(want.ColIndex("uri"), 0); got != "/p�q" {
		t.Fatalf("batch uri %q, want the lone byte as U+FFFD", got)
	}
	sameTable(t, table(t, local, "apache_event"), want)
	sameTable(t, table(t, remote, "apache_event"), want)
}

// TestLiveKeepsTextInsideOneBatch: a column that turns string inside one
// batch holds what the log said, not a rendering of the number it read as.
func TestLiveKeepsTextInsideOneBatch(t *testing.T) {
	entries := []mxml.Entry{fields("a", "007"), fields("a", "1e3"), fields("a", "x")}
	want := wholeFile(t, "apache_event", entries)
	db := mscopedb.Open()
	p, rs := remoteEngine(t, db)
	appendRemote(t, rs, entries, 0)
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	sameTable(t, table(t, db, "apache_event"), want)
}

// adversarialPlan and writeAdversarialDir stage the batch ingest's
// adversarial-typing log (internal/transform's engine tests) as a
// streamable event log: columns that are ints, then floats, then strings —
// at the second row, mid-file and at the last row — with the numbers whose
// text their value does not give back in front of the cell that degrades
// them; unhinted times ahead of an int; a hinted time a Const of the same
// name follows; a column empty for most rows; a field only the last record
// has; and a derived duplicate of a field.
func adversarialPlan() *transform.Plan {
	return &transform.Plan{Bindings: []transform.Binding{{Glob: "*_adv.log", Parser: "token", Source: "adversarial",
		TableSuffix: "event",
		Instructions: parsers.Instructions{
			Pattern: `^(?P<early>\S+) (?P<mid>\S+) (?P<last>\S+) (?P<f>\S+) (?P<tcol>\S+) (?P<h>\S+) (?P<hm>\S+) (?P<sparse>\S*) (?P<dup>\S+) (?P<rest>.*)$`,
			Derive: []parsers.DeriveRule{
				{Field: "rest", Pattern: `dup=(?P<dup>\S+)`, Optional: true},
				{Field: "rest", Pattern: `late=(?P<late>\S+)`, Optional: true},
			},
			Times: []parsers.TimeRule{{Field: "h", Layout: time.RFC3339Nano}, {Field: "hm", Layout: time.RFC3339Nano}},
			Const: map[string]string{"hm": "7"},
		}}}}
}

func writeAdversarialDir(t *testing.T, rows int) string {
	t.Helper()
	ints := []string{"+1", "007", "-0", "12"}
	floats := []string{"1e3", "1_000", "0x1p4", "9223372036854775808", "NaN"}
	numbers := append(append([]string(nil), ints...), floats[:4]...)
	times := []string{"2017-04-01T00:00:12Z", "2017-04-01T00:00:12.5Z", "2017-04-01T00:00:12.500Z",
		"2017-04-01T5:04:05Z", "2017-04-01T00:00:12+00:00", "2017-04-01T00:00:12.1234567Z"}
	walk := func(i, float, str int) string {
		switch {
		case i == str:
			return "0x10"
		case i > str:
			return "after"
		case i >= float:
			return floats[i%5]
		}
		return ints[i%4]
	}
	var b strings.Builder
	for i := 0; i < rows; i++ {
		tcol, sparse, dup, rest := times[i%len(times)], "", strconv.Itoa(i), "-"
		if i == rows/2 {
			tcol = "12"
		}
		if i >= rows*9/10 {
			sparse = strconv.Itoa(i)
		}
		if i%100 == 99 {
			dup, rest = "x", "dup=5"
		}
		if i == rows-1 {
			rest = "late=1e3"
		}
		stamp := simtime.Epoch.Add(time.Duration(i) * time.Millisecond).Format(time.RFC3339Nano)
		fmt.Fprintf(&b, "%s %s %s %s %s %s %s %s %s %s\n", walk(i, 1, 2), walk(i, rows/2, rows/2+rows/10),
			walk(i, rows-2, rows-1), numbers[i%8], tcol, stamp, stamp, sparse, dup, rest)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trial_adv.log"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// lastTypeChange returns, per column, the last row at which its type, as
// the converter's inference settles it over the rows so far, changed.
func lastTypeChange(t *testing.T, dir string, plan *transform.Plan) map[string]int {
	t.Helper()
	b := plan.Bindings[0]
	data, err := os.ReadFile(filepath.Join(dir, "trial_adv.log"))
	if err != nil {
		t.Fatal(err)
	}
	parser, _ := parsers.Get(b.Parser)
	types, last, row := map[string]mscopedb.Type{}, map[string]int{}, 0
	err = parser.ParseRecords(bytes.NewReader(data), b.Instructions, func(r *parsers.Record) error {
		for _, c := range r.Cells {
			typ := mscopedb.TTime
			if c.Kind != parsers.CellTime {
				typ = xmlcsv.TypeBytes(c.AppendText(nil), c.Hint).Type
			}
			if w := xmlcsv.Widen(types[c.Name], typ); w != types[c.Name] {
				types[c.Name], last[c.Name] = w, row
			}
		}
		row++
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return last
}

// reRendered reports whether got is the batch cell want read back after a
// widening re-rendered it: the same number, or the same time.
func reRendered(got, want any) bool {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		return ok && (g == w || (math.IsNaN(g) && math.IsNaN(w)))
	case string:
		g, ok := got.(string)
		if !ok {
			return false
		}
		gv, wv := xmlcsv.TypeBytes([]byte(g), ""), xmlcsv.TypeBytes([]byte(w), "")
		switch wv.Type {
		case mscopedb.TInt, mscopedb.TFloat:
			return (gv.Type == mscopedb.TInt || gv.Type == mscopedb.TFloat) && gv.Float == wv.Float
		case mscopedb.TTime:
			return gv.Type == mscopedb.TTime && gv.Int == wv.Int
		}
	}
	return false
}

// TestLiveAdversarialTypingLimit pins the one limit left to live typing:
// every column equals the batch table from the first row of the block in
// which it last changed type, and the rows before hold what a widening
// re-rendered. The remote engine cuts its wire batch into blocks of
// batchCap from the first row, which pins the block exactly; the drained
// engine's blocks end where its parser read, so of those the test knows
// only that the block ends past the change.
func TestLiveAdversarialTypingLimit(t *testing.T) {
	rows := 10_000
	if testing.Short() {
		rows = 1_000
	}
	plan := adversarialPlan()
	dir := writeAdversarialDir(t, rows)
	local, remote, batch := liveTwoWays(t, dir, plan)
	changed := lastTypeChange(t, dir, plan)
	want := table(t, batch, "trial_event")
	for _, run := range []struct {
		name  string
		db    *mscopedb.DB
		exact bool
	}{{"remote", remote, true}, {"drained", local, false}} {
		got := table(t, run.db, "trial_event")
		if fmt.Sprint(got.Columns()) != fmt.Sprint(want.Columns()) || got.Rows() != want.Rows() {
			t.Fatalf("%s: %d rows of %v, want %d of %v", run.name, got.Rows(), got.Columns(), want.Rows(), want.Columns())
		}
		rendered := 0
		for ci, col := range want.Columns() {
			from := changed[col.Name] / batchCap * batchCap
			if !run.exact {
				from = changed[col.Name]
			}
			for r := want.Rows() - 1; r >= 0; r-- {
				g, w := got.Value(ci, r), want.Value(ci, r)
				if fmt.Sprintf("%#v", g) == fmt.Sprintf("%#v", w) {
					continue
				}
				if r >= from || !reRendered(g, w) {
					t.Fatalf("%s: column %s row %d: %#v, want %#v (type last changed at row %d)",
						run.name, col.Name, r, g, w, changed[col.Name])
				}
				rendered++
			}
		}
		if rendered == 0 {
			t.Errorf("%s: no cell re-rendered: the log no longer changes a column's type between blocks", run.name)
		}
	}
}

// BenchmarkRemoteAppendBatch: the collector's hop into the engine — one
// decoded 512-record wire batch of disk-IO trial apache events typed into
// blocks and merged. Allocations a batch, not a record, are what it pins.
func BenchmarkRemoteAppendBatch(b *testing.B) {
	stage := stagedDBIO(b)
	plan := transform.DefaultPlan()
	bind, _ := plan.Find("apache_access.log")
	parser, err := parsers.Get(bind.Parser)
	if err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(stage, "apache_access.log"))
	if err != nil {
		b.Fatal(err)
	}
	var src wire.Batch
	n := 0
	err = parser.ParseRecords(bytes.NewReader(data), bind.Instructions, func(r *parsers.Record) error {
		if n++; n > 512 {
			return errFull
		}
		return src.AppendRecord(r)
	}, nil)
	if err != errFull {
		b.Fatalf("the trial has fewer than 512 apache events: %v", err)
	}
	frame, err := wire.DecodeBatch(wire.EncodeBatch(&src))
	if err != nil {
		b.Fatal(err)
	}
	// A fresh engine every 64 batches keeps the warehouse small.
	var p *Pipeline
	var rs *RemoteSource
	restart := func() {
		b.StopTimer()
		defer b.StartTimer()
		if p != nil {
			p.Stop()
		}
		if p, err = NewRemote(Config{}); err != nil {
			b.Fatal(err)
		}
		p.Start()
		if rs, _, err = p.OpenRemote("/node/apache_access.log", "apache_access.log"); err != nil {
			b.Fatal(err)
		}
	}
	done := make(chan struct{}, 1)
	ack := func() { done <- struct{}{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			restart()
		}
		frame.Offset = int64(i%64 + 1)
		rs.AppendBatch(&frame, ack)
		<-done
	}
	b.StopTimer()
	p.Stop()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/record")
}

var errFull = fmt.Errorf("stream: benchmark batch full")
