package transform

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
