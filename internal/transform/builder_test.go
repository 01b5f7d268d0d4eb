package transform

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/wire"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// TestCSVRoundTripMatchesEncodingCSV pins csvRoundTrip to what a real
// encoding/csv write→read cycle does to a cell.
func TestCSVRoundTripMatchesEncodingCSV(t *testing.T) {
	vals := []string{
		"plain", "", "a,b", `quo"te`, "line\nbreak", "cr\rmid", "crlf\r\nend",
		"\r\n", "trailing\r", "\rleading", "a\r\n\r\nb", "mixed\r\rnot\ncrlf",
	}
	for _, v := range vals {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		// The pad cell keeps a lone empty value from becoming a blank line,
		// matching real converter output (tables always have the pad of
		// other columns or the writer's "" quoting).
		if err := w.Write([]string{v, "pad"}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		r := csv.NewReader(&buf)
		rec, err := r.Read()
		if err != nil {
			t.Fatalf("read back %q: %v", v, err)
		}
		if got := string(csvRoundTrip([]byte(v))); rec[0] != got {
			t.Errorf("csvRoundTrip(%q) = %q, want %q", v, got, rec[0])
		}
	}
}

// TestNormalizeXMLMatchesConverter runs nasty field values through the
// real staged machinery — mxml writer, converter, CSV reader — and checks
// each recovered cell equals csvRoundTrip(normalizeXML(value)).
func TestNormalizeXMLMatchesConverter(t *testing.T) {
	vals := []string{
		"plain", "tab\there", "nl\nthere", "cr\rhere", "crlf\r\npair",
		"caf\xc3\xa9", "\x80", "a\xff\xfeb", "ctl\x01\x02", "\x0bvt",
		"del\x7f", "�-literal", "surrogate\xed\xa0\x80tail",
		"\xe6\x97", "mix\x80\r\n\x01end",
	}
	work := t.TempDir()
	mxmlPath := filepath.Join(work, "nasty_vals.mxml")
	f, err := os.Create(mxmlPath)
	if err != nil {
		t.Fatal(err)
	}
	w := mxml.NewWriter(f)
	if err := w.Open(mxml.Meta{Source: "test", Host: "nasty", Table: "nasty_vals"}); err != nil {
		t.Fatal(err)
	}
	var e mxml.Entry
	for i, v := range vals {
		e.Add(fmt.Sprintf("c%02d", i), v)
	}
	if err := w.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	conv, err := xmlcsv.ConvertFile(mxmlPath, work)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(conv.CSVPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("converter produced %d rows, want header + 1", len(rows))
	}
	head, cells := rows[0], rows[1]
	byName := map[string]string{}
	for i, h := range head {
		byName[h] = cells[i]
	}
	for i, v := range vals {
		want := roundTrips(v)
		if got := byName[fmt.Sprintf("c%02d", i)]; got != want {
			t.Errorf("value %d (%q): converter produced %q, in-memory normalization %q", i, v, got, want)
		}
	}
}

// roundTrips is what a text reads back as after the annotated-XML and the
// CSV round trips, as the builder applies them to the bytes of a cell.
func roundTrips(s string) string {
	return string(csvRoundTrip(normalizeXML(nil, []byte(s))))
}

// referenceTable is the two-pass construction tableBuilder replaced, kept
// as its oracle, over the entries the adapter makes of the records: every
// entry, normalized, is folded into the converter's whole-file inference
// (xmlcsv.Inference), and only then is each row rendered in schema order,
// the last of duplicate fields winning, and typed a second time by
// Table.AppendStrings.
func referenceTable(table, mxmlPath string, recs []parsers.Record) (*mscopedb.Table, error) {
	inf := xmlcsv.NewInference()
	emptyName := false
	norm := make([]mxml.Entry, len(recs))
	var adapter parsers.Entries
	for i := range recs {
		for _, f := range adapter.Entry(&recs[i]).Fields {
			f.Name, f.Value = string(normalizeXML(nil, []byte(f.Name))), string(normalizeXML(nil, []byte(f.Value)))
			emptyName = emptyName || f.Name == ""
			norm[i].Fields = append(norm[i].Fields, f)
		}
		inf.Observe(norm[i])
	}
	if emptyName {
		return nil, fmt.Errorf("xmlcsv: read %s: mxml: field without name", mxmlPath)
	}
	cols := inf.Columns()
	if cols == nil {
		return nil, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	tbl, err := mscopedb.NewTable(table, cols)
	if err != nil {
		return nil, err
	}
	for _, e := range norm {
		row := xmlcsv.Row(e, cols)
		for i := range row {
			row[i] = string(csvRoundTrip([]byte(row[i])))
		}
		if err := tbl.AppendStrings(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// builtTable runs the records through a tableBuilder as processFile does.
func builtTable(table, mxmlPath string, recs []parsers.Record) (*mscopedb.Table, error) {
	var b tableBuilder
	for i := range recs {
		if err := b.add(&recs[i]); err != nil {
			return nil, err
		}
	}
	cols, err := b.schema(mxmlPath)
	if err != nil {
		return nil, err
	}
	return b.table(table, cols)
}

// sameAsReference fails unless the builder and the two-pass oracle agree on
// the error or on the table: schema and every cell, floats by their bits'
// rendering (-0 is not 0).
func sameAsReference(t *testing.T, recs []parsers.Record) {
	t.Helper()
	want, wantErr := referenceTable("t", "t.mxml", recs)
	got, gotErr := builtTable("t", "t.mxml", recs)
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("builder error %v, two-pass error %v", gotErr, wantErr)
		}
		return
	}
	dump := func(tbl *mscopedb.Table) string {
		db := mscopedb.Open()
		if err := db.Install(tbl); err != nil {
			t.Fatal(err)
		}
		return dbtest.Dump(t, db)
	}
	dbtest.Same(t, "builder against two-pass", dump(want), dump(got))
}

// typerCorpus is FuzzCellTyperEquivalence's seed corpus (internal/xmlcsv):
// the texts a hand scanner gets wrong, and the leniencies of time.Parse.
var typerCorpus = []string{
	"", "0", "42", "-17", "3.5", "hello", "GET", "/rubbos/ViewStory?id=7", "sda", "200 OK", "10.0.0.1",
	"-", "+", ".", "+1", "-0", "+0", "-0.0", "1_0", "1_0.5", "_1", "1_", "0x10", "0x1p-2", "0X_1P2", "1e5", "1E+5",
	"1e", "1e+", "1e_5", "1.", ".5", "-.5e-3", " 1", "1 ", "inf", "-Inf", "+INF", "NaN", "+nan", "Infinity",
	"infinit", "nano", "index.html", "1e999", "-1e999", "4.9e-324", "1e-400", "1e3", "1_000",
	"007", "-007", "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
	"18446744073709551616", "9007199254740993", "00000000000000000000001", "1234567", "1e21",
	"2016-12-31T23:59:60Z", "2017-04-01T00:00:12Z", "2017-04-01T00:00:12+00:00", "2017-04-01T00:00:12-07:00",
	"2017-04-01T00:00:12.1Z", "2017-04-01T00:00:12.12Z", "2017-04-01T00:00:12.123Z", "2017-04-01T00:00:12.1234Z",
	"2017-04-01T00:00:12.12345Z", "2017-04-01T00:00:12.123456Z", "2017-04-01T00:00:12.1234567Z",
	"2017-04-01T00:00:12.12345678Z", "2017-04-01T00:00:12.123456789Z", "2017-04-01T00:00:12.1234567891Z",
	"2017-04-01T00:00:12.10Z", "2017-04-01T00:00:12.000000Z", "2017-04-01T00:00:12.Z",
	"2017-04-01T5:04:05Z", "2017-04-01T15:04:05,5Z", "2017-04-01T24:00:00Z", "2017-02-30T00:00:00Z",
	"2017-04-01 00:00:12Z", "2017-04-01T00:00:12", "2017-04-01T00:00:12z", "0000-01-01T00:00:00Z",
	"9999-12-31T23:59:59.999999999+23:59",
	"crlf\r\npair", "a\xff\xfeb", "ctl\x01",
}

// What a parser can compute: times with digits below the microsecond, in
// year 0, in years the layout cannot read back, and ints at both ends.
var (
	computedTimes = []time.Time{
		time.Date(2017, 4, 1, 0, 0, 12, 345678000, time.UTC),
		time.Date(2017, 4, 1, 0, 0, 12, 345678900, time.UTC),
		time.Date(2017, 4, 1, 0, 0, 12, 1, time.UTC),
		time.Date(2017, 4, 1, 0, 0, 12, 0, time.UTC),
		time.Date(2017, 4, 1, 0, 0, 12, 120000000, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 23, 59, 59, 999999000, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999000, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	computedInts = []int64{0, 7, -1, 1491004812345678, math.MaxInt64, math.MinInt64}
)

// fuzzRecords decodes a fuzz input into records. shape is read three bytes
// a cell — which name, which value, and flags (bit 0 the "time" hint, bit
// 1 take the value from texts rather than the typer corpus, bit 2 the
// record ends after this cell, bit 3 an empty record follows, bit 4 the
// value is one the parser computed: a time under the hint, else an int) —
// so the fuzzer reaches late columns, missing fields, duplicate names in
// one record and every order of widening.
func fuzzRecords(shape []byte, texts string) []parsers.Record {
	names := []string{"a", "b", "c", "d", "n\x80sty", "\x01", ""}
	pool := strings.Split(texts, "\n")
	var recs []parsers.Record
	var cur parsers.Record
	for ; len(shape) >= 3; shape = shape[3:] {
		c := parsers.Cell{Name: names[int(shape[0])%len(names)], Text: []byte(typerCorpus[int(shape[1])%len(typerCorpus)])}
		if shape[0] >= 250 {
			c.Name = "late" // rare, so it tends to appear late
		}
		flags := shape[2]
		if flags&1 != 0 {
			c.Hint = "time"
		}
		switch {
		case flags&16 != 0 && flags&1 != 0:
			ts := computedTimes[int(shape[1])%len(computedTimes)]
			c = parsers.Cell{Name: c.Name, Hint: "time", Kind: parsers.CellTime, Int: ts.Unix(), Nsec: int32(ts.Nanosecond())}
		case flags&16 != 0:
			c.Kind, c.Text, c.Int = parsers.CellInt, nil, computedInts[int(shape[1])%len(computedInts)]
		case flags&2 != 0:
			c.Text = []byte(pool[int(shape[1])%len(pool)])
		}
		cur.Cells = append(cur.Cells, c)
		if flags&4 != 0 {
			recs = append(recs, cur)
			cur = parsers.Record{}
			if flags&8 != 0 {
				recs = append(recs, parsers.Record{})
			}
		}
	}
	if len(cur.Cells) > 0 {
		recs = append(recs, cur)
	}
	return recs
}

// FuzzTableBuilderEquivalence: for arbitrary records — names, values, hints,
// computed cells and shapes — the table the builder grows from the cells'
// bytes as the records arrive is the one whole-file inference followed by a
// second typing pass gives over the entries made of the same records, or
// both fail with the same error.
func FuzzTableBuilderEquivalence(f *testing.F) {
	builderSeeds(func(shape []byte, texts string) { f.Add(shape, texts) })
	f.Fuzz(func(t *testing.T, shape []byte, texts string) {
		sameAsReference(t, fuzzRecords(shape, texts))
	})
}

// builderSeeds hands add the builder fuzz targets' seed inputs.
func builderSeeds(add func(shape []byte, texts string)) {
	corpus := func(v string) byte {
		for i, c := range typerCorpus {
			if c == v {
				return byte(i)
			}
		}
		panic("not in the typer corpus: " + v)
	}
	// One column walking int → float → string, with every non-canonical
	// number in front of the cell that degrades it.
	var walk []byte
	for _, v := range []string{"+1", "007", "-0", "42", "", "1e3", "0x10", "NaN", "9223372036854775808", "1_000"} {
		walk = append(walk, 0, corpus(v), 4)
	}
	add(walk, "")
	// A float column that degrades on its last row.
	add([]byte{1, corpus("3.5"), 4, 1, corpus("-0"), 4, 1, corpus("1e3"), 4, 1, corpus("hello"), 4}, "")
	// Duplicate names in one record, a late column, an empty-named field,
	// hinted and unhinted times, values from the free text.
	add([]byte{0, 1, 0, 0, 4, 4, 1, 60, 1, 1, 2, 5, 250, 3, 4, 6, 0, 4}, "")
	add([]byte{2, 0, 2, 2, 1, 6, 2, 2, 7, 3, 0, 12}, "12\n2017-04-01T00:00:12.500Z\nx\r\ny")
	// Invalid UTF-8 and XML-illegal runes in names and values, a CR LF
	// inside a cell.
	add([]byte{4, 0, 2, 5, 1, 2, 0, 2, 6, 4, 3, 6}, "a\xff\xfeb\nctl\x01\x0b\nc\r\nd\n\xed\xa0\x80")
	for i := range typerCorpus {
		add([]byte{0, 2, 4, 0, byte(i), 5, 0, 3, 4, 1, byte(i), 4}, "")
	}
	// Every computed value into an empty column, then under each type a
	// column can already have, then degraded by what follows it.
	for i := range computedTimes {
		for _, v := range []string{"", "42", "3.5", "hello", "2017-04-01T00:00:12.1Z"} {
			add([]byte{0, byte(i), 17 + 4, 0, corpus(v), 4, 0, byte(i), 17 + 4, 1, byte(i), 16 + 4, 1, corpus(v), 4, 1, byte(i), 16 + 4}, "")
		}
	}
}

// TestCanonicalCellsRenderBack pins the byte tests behind the builder's
// text retention to the renderings they stand for: a cell it calls
// canonical is one whose stored value formats back to its text.
func TestCanonicalCellsRenderBack(t *testing.T) {
	for _, s := range typerCorpus {
		for _, hint := range []string{"", "time"} {
			v := xmlcsv.TypeBytes([]byte(s), hint)
			var rendered string
			switch v.Type {
			case mscopedb.TInt:
				rendered = strconv.FormatInt(v.Int, 10)
			case mscopedb.TTime:
				rendered = time.UnixMicro(v.Int).UTC().Format(mxml.TimeLayout)
			default:
				if canonical(v.Type, []byte(s)) {
					t.Errorf("canonical(%q as %v): only ints and times can be", s, v.Type)
				}
				continue
			}
			if got := canonical(v.Type, []byte(s)); got != (rendered == s) {
				t.Errorf("canonical(%q as %v) = %v, but it renders as %q", s, v.Type, got, rendered)
			}
		}
	}
}

// TestBatchIngestHoldsNoEntryArena: an in-memory ingest of a 100k-record
// apache log allocates for the columns it builds and for nothing else — no
// per-file arena of entries, no string a line, none a cell. Measured on this
// log, bytes and mallocs a row: 3,090 and 3.01 with the entry arena; 606 and
// 3.01 once the builder typed entries as they arrived; 216 and 0.01 now
// that it types cells from the parser's bytes and sizes its columns by how
// far the file has been read. More workers change neither number: a file is
// parsed once, by one of them.
func TestBatchIngestHoldsNoEntryArena(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-record ingest")
	}
	const records, maxBytes, maxMallocs = 100_000, 250.0, 0.5
	logDir := writeLogDir(t, map[string]string{"apache_access.log": string(apacheCorpus(records, 0))})
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := IngestDirWithOptions(mscopedb.Open(), logDir, t.TempDir(), DefaultPlan(), Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil || rep.TotalRows() != records {
			t.Fatalf("ingest loaded %d rows: %v", rep.TotalRows(), err)
		}
		bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / records
		mallocsPerRow := float64(after.Mallocs-before.Mallocs) / records
		t.Logf("workers %d: %.0f bytes and %.4f mallocs a row", workers, bytesPerRow, mallocsPerRow)
		if bytesPerRow > maxBytes || mallocsPerRow > maxMallocs {
			t.Errorf("workers %d: %.0f bytes and %.2f mallocs a row, want at most %.0f and %.1f",
				workers, bytesPerRow, mallocsPerRow, maxBytes, maxMallocs)
		}
	}
}

// TestConstFieldsKeepOneOrder: a declaration's constants reach every record
// in key order. Emitted in map order, as they were, three constants gave
// each record one of six field orders: the builder's schema (columns in
// first-appearance order) differed from run to run, and the agent's wire
// batch started a new segment whenever the order flipped.
func TestConstFieldsKeepOneOrder(t *testing.T) {
	instr := parsers.Instructions{Pattern: `^(?P<n>\d+)$`,
		Const: map[string]string{"zone": "z1", "host": "web1", "rack": "r7"}}
	input := strings.Repeat("42\n", 500)
	p, err := parsers.Get("token")
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 50; run++ {
		var tb tableBuilder
		if err := p.ParseRecords(strings.NewReader(input), instr, tb.add, nil); err != nil {
			t.Fatal(err)
		}
		cols, err := tb.schema("t.mxml")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range cols {
			names = append(names, c.Name)
		}
		if got := strings.Join(names, " "); got != "n host rack zone" || tb.rows != 500 {
			t.Fatalf("parse %d: %d rows with columns %q, want 500 with the constants in key order", run, tb.rows, got)
		}
		var batch wire.Batch
		err = p.Parse(strings.NewReader(input), instr, func(e mxml.Entry) error {
			batch.AppendEntries([]mxml.Entry{e})
			return nil
		})
		if err != nil || len(batch.Segments) != 1 {
			t.Fatalf("parse %d: %d wire segments (err %v), want the 500 records in one", run, len(batch.Segments), err)
		}
	}
}
