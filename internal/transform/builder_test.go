package transform

import (
	"bytes"
	"encoding/csv"
	"fmt"
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
		if rec[0] != csvRoundTrip(v) {
			t.Errorf("csvRoundTrip(%q) = %q, want %q", v, csvRoundTrip(v), rec[0])
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
		want := csvRoundTrip(normalizeXML(v))
		if got := byName[fmt.Sprintf("c%02d", i)]; got != want {
			t.Errorf("value %d (%q): converter produced %q, in-memory normalization %q", i, v, got, want)
		}
	}
}

// referenceTable is the two-pass construction tableBuilder replaced, kept
// as its oracle: every entry, normalized, is folded into the converter's
// whole-file inference (xmlcsv.Inference), and only then is each row
// rendered in schema order, the last of duplicate fields winning, and typed
// a second time by Table.AppendStrings.
func referenceTable(table, mxmlPath string, entries []mxml.Entry) (*mscopedb.Table, error) {
	inf := xmlcsv.NewInference()
	emptyName := false
	norm := make([]mxml.Entry, len(entries))
	for i, e := range entries {
		for _, f := range e.Fields {
			f = mxml.Field{Name: normalizeXML(f.Name), Value: normalizeXML(f.Value), Hint: normalizeXML(f.Hint)}
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
			row[i] = csvRoundTrip(row[i])
		}
		if err := tbl.AppendStrings(row); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// builtTable runs the entries through a tableBuilder as processFile does.
func builtTable(table, mxmlPath string, entries []mxml.Entry) (*mscopedb.Table, error) {
	var b tableBuilder
	for _, e := range entries {
		// add recycles the entry's field storage; the caller keeps its own.
		if err := b.add(mxml.Entry{Fields: append([]mxml.Field(nil), e.Fields...)}); err != nil {
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
func sameAsReference(t *testing.T, entries []mxml.Entry) {
	t.Helper()
	want, wantErr := referenceTable("t", "t.mxml", entries)
	got, gotErr := builtTable("t", "t.mxml", entries)
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

// fuzzEntries decodes a fuzz input into entries. shape is read three bytes
// a field — which name, which value, and flags (bit 0 the "time" hint, bit
// 1 take the value from texts rather than the typer corpus, bit 2 the
// record ends after this field, bit 3 an empty record follows) — so the
// fuzzer reaches late columns, missing fields, duplicate names in one
// record and every order of widening.
func fuzzEntries(shape []byte, texts string) []mxml.Entry {
	names := []string{"a", "b", "c", "d", "n\x80sty", ""}
	pool := strings.Split(texts, "\n")
	var entries []mxml.Entry
	var cur mxml.Entry
	for ; len(shape) >= 3; shape = shape[3:] {
		f := mxml.Field{Name: names[int(shape[0])%len(names)], Value: typerCorpus[int(shape[1])%len(typerCorpus)]}
		if shape[0] >= 250 {
			f.Name = "late" // rare, so it tends to appear late
		}
		flags := shape[2]
		if flags&1 != 0 {
			f.Hint = "time"
		}
		if flags&2 != 0 {
			f.Value = pool[int(shape[1])%len(pool)]
		}
		cur.Fields = append(cur.Fields, f)
		if flags&4 != 0 {
			entries = append(entries, cur)
			cur = mxml.Entry{}
			if flags&8 != 0 {
				entries = append(entries, mxml.Entry{})
			}
		}
	}
	if len(cur.Fields) > 0 {
		entries = append(entries, cur)
	}
	return entries
}

// FuzzTableBuilderEquivalence: for arbitrary records — names, values, hints
// and shapes — the table the builder grows as the records arrive is the one
// whole-file inference followed by a second typing pass gives, or both fail
// with the same error.
func FuzzTableBuilderEquivalence(f *testing.F) {
	// One column walking int → float → string, with every non-canonical
	// number in front of the cell that degrades it.
	var walk []byte
	for _, v := range []string{"+1", "007", "-0", "42", "", "1e3", "0x10", "NaN", "9223372036854775808", "1_000"} {
		for i, c := range typerCorpus {
			if c == v {
				walk = append(walk, 0, byte(i), 4)
			}
		}
	}
	f.Add(walk, "")
	// Duplicate names in one record, a late column, an empty-named field,
	// hinted and unhinted times, values from the free text.
	f.Add([]byte{0, 1, 0, 0, 4, 4, 1, 60, 1, 1, 2, 5, 250, 3, 4, 5, 0, 4}, "")
	f.Add([]byte{2, 0, 2, 2, 1, 6, 2, 2, 7, 3, 0, 12}, "12\n2017-04-01T00:00:12.500Z\nx\r\ny")
	for i := range typerCorpus {
		f.Add([]byte{0, 2, 4, 0, byte(i), 5, 0, 3, 4, 1, byte(i), 4}, "")
	}
	f.Fuzz(func(t *testing.T, shape []byte, texts string) {
		sameAsReference(t, fuzzEntries(shape, texts))
	})
}

// TestCanonicalCellsRenderBack pins the byte tests behind the builder's
// text retention to the renderings they stand for: a cell it calls
// canonical is one whose stored value formats back to its text.
func TestCanonicalCellsRenderBack(t *testing.T) {
	for _, s := range typerCorpus {
		for _, hint := range []string{"", "time"} {
			v := xmlcsv.TypeCell(s, hint)
			var rendered string
			switch v.Type {
			case mscopedb.TInt:
				rendered = strconv.FormatInt(v.Int, 10)
			case mscopedb.TTime:
				rendered = time.UnixMicro(v.Int).UTC().Format(mxml.TimeLayout)
			default:
				if canonical(v) {
					t.Errorf("canonical(%q as %v): only ints and times can be", s, v.Type)
				}
				continue
			}
			if got := canonical(v); got != (rendered == s) {
				t.Errorf("canonical(%q as %v) = %v, but it renders as %q", s, v.Type, got, rendered)
			}
		}
	}
}

// TestBatchIngestHoldsNoEntryArena: an in-memory ingest of a 100k-record
// apache log allocates a fraction of what it did while every field was
// first copied into a per-file arena of 48-byte mxml.Fields grown by
// doubling. Measured on this log at the commit before the builder: 3,090
// bytes and 3.005 to 3.009 mallocs a row (the first run of a process is the
// high one); with it: 606 bytes and the same 3.005 to 3.009. More workers
// change neither number: a file is parsed once, by one of them (the sharded
// parse four workers used to run allocated 1.8 times the bytes).
func TestBatchIngestHoldsNoEntryArena(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-record ingest")
	}
	const records, parentBytes, parentMallocs = 100_000, 3090.0, 3.01
	logDir := writeLogDir(t, map[string]string{"apache_access.log": string(apacheCorpus(records, 0))})
	measure := func(workers int) (bytesPerRow, mallocsPerRow float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := IngestDirWithOptions(mscopedb.Open(), logDir, t.TempDir(), DefaultPlan(), Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil || rep.TotalRows() != records {
			t.Fatalf("ingest loaded %d rows: %v", rep.TotalRows(), err)
		}
		bytesPerRow = float64(after.TotalAlloc-before.TotalAlloc) / records
		mallocsPerRow = float64(after.Mallocs-before.Mallocs) / records
		t.Logf("workers %d: %.0f bytes and %.4f mallocs a row", workers, bytesPerRow, mallocsPerRow)
		return bytesPerRow, mallocsPerRow
	}
	bytesPerRow, mallocsPerRow := measure(1)
	if bytesPerRow > 0.6*parentBytes {
		t.Errorf("%.0f bytes allocated a row, over 60%% of the %.0f of the entry arena", bytesPerRow, parentBytes)
	}
	if mallocsPerRow > parentMallocs {
		t.Errorf("%.2f mallocs a row, above the %.2f of the entry arena", mallocsPerRow, parentMallocs)
	}
	bytes4, mallocs4 := measure(4)
	if bytes4 > 1.05*bytesPerRow || mallocs4 > 1.05*mallocsPerRow {
		t.Errorf("four workers allocate %.0f bytes and %.4f mallocs a row, over 5%% above one worker's %.0f and %.4f",
			bytes4, mallocs4, bytesPerRow, mallocsPerRow)
	}
}
