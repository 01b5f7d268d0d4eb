package transform

// The parser's entries flow straight into schema inference and a columnar
// table build, in memory. The annotated-XML and CSV files of §III-B are an
// export of that entry set (Options.Materialize), and the warehouse must
// equal what re-loading those files would give. The file round trips are
// not the identity on arbitrary bytes — xml.EscapeText → xml.Decoder turns
// invalid UTF-8 and XML-illegal runes into U+FFFD; encoding/csv collapses
// CR LF inside a quoted cell to LF — so the same normalizations are applied
// in memory: normalizeXML and csvRoundTrip below.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"unicode/utf8"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// xmlCharOK mirrors encoding/xml's isInCharacterRange: the runes XML 1.0
// permits in a document.
func xmlCharOK(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// normalizeXML applies the annotated-XML write→read round trip to one
// string: xml.EscapeText replaces invalid UTF-8 bytes and XML-illegal
// runes with U+FFFD and escapes everything else reversibly (including
// \t \n \r, which therefore dodge the XML parser's line-end and
// attribute-value normalizations). Clean strings — the overwhelmingly
// common case — are returned unchanged without allocating.
func normalizeXML(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= 0x80 || (b < 0x20 && b != '\t' && b != '\n' && b != '\r') {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && width == 1) || !xmlCharOK(r) {
			sb.WriteRune(utf8.RuneError)
		} else {
			sb.WriteRune(r)
		}
		i += width
	}
	return sb.String()
}

// csvRoundTrip applies the converter-CSV write→read round trip: a cell
// containing CR LF is quoted on write, and encoding/csv's reader treats a
// carriage return followed by a newline inside a quoted cell as a single
// newline. Every other cell the writer produces reads back verbatim.
func csvRoundTrip(s string) string {
	if !strings.Contains(s, "\r\n") {
		return s
	}
	return strings.ReplaceAll(s, "\r\n", "\n")
}

// entrySet collects one file's parsed entries in a single field arena —
// the in-memory stand-in for the annotated-XML document — while folding
// each entry into the converter's bottom-up schema inference.
type entrySet struct {
	fields []mxml.Field
	// ends[i] is the arena offset one past entry i's last field.
	ends []int
	inf  *xmlcsv.Inference
	// emptyName records that some field had an empty name, which reading
	// the exported document back rejects.
	emptyName bool
}

func newEntrySet() *entrySet { return &entrySet{inf: xmlcsv.NewInference()} }

func (s *entrySet) len() int { return len(s.ends) }

// reserve pre-sizes the arena for entries records totalling fields
// fields. The sharded parse's stitch holds the parsed records and knows
// both counts exactly; reserving once replaces the append doubling chain
// — and its large-block clear+copy cost, the top CPU item in the
// sharded-ingest profile — with a single allocation.
func (s *entrySet) reserve(entries, fields int) {
	s.fields = slices.Grow(s.fields, fields)
	s.ends = slices.Grow(s.ends, entries)
}

// add is the parser's Emit sink: normalize, copy into the arena, observe,
// and recycle the entry's field storage.
func (s *entrySet) add(e mxml.Entry) error {
	start := len(s.fields)
	for _, f := range e.Fields {
		name := normalizeXML(f.Name)
		if name == "" {
			s.emptyName = true
		}
		s.fields = append(s.fields, mxml.Field{
			Name: name, Value: normalizeXML(f.Value), Hint: normalizeXML(f.Hint)})
	}
	s.ends = append(s.ends, len(s.fields))
	s.inf.Observe(mxml.Entry{Fields: s.fields[start:]})
	e.Release()
	return nil
}

// replay feeds a stitched sharded parse — malformed regions, then entries,
// each already in whole-file order — through the sinks a streamed parse
// calls as it goes, so both leave the same sink bytes and the same set.
func (s *entrySet) replay(entries []mxml.Entry, regions []parsers.Malformed, rec parsers.Recover) error {
	for _, m := range regions {
		if err := rec(m); err != nil {
			return err
		}
	}
	nf := 0
	for _, e := range entries {
		nf += len(e.Fields)
	}
	s.reserve(len(entries), nf)
	for _, e := range entries {
		if err := s.add(e); err != nil {
			return err
		}
	}
	return nil
}

// columns finalizes schema inference, reproducing the converter's failure
// modes (and exact errors) for degenerate documents. mxmlPath is the path
// an export writes the document to — reported, not necessarily created.
func (s *entrySet) columns(mxmlPath string) ([]mscopedb.Column, error) {
	if s.emptyName {
		return nil, fmt.Errorf("xmlcsv: read %s: mxml: field without name", mxmlPath)
	}
	cols := s.inf.Columns()
	if cols == nil {
		return nil, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	return cols, nil
}

// buildTable materializes the collected entries as a columnar table:
// preallocated to the known row count, cells rendered in schema order
// with the converter's last-value-wins rule for duplicate field names.
// csvPath is the path an export writes the CSV to — used only in error
// messages and ledger rows.
func (s *entrySet) buildTable(table string, cols []mscopedb.Column, csvPath string) (*mscopedb.Table, error) {
	tbl, err := mscopedb.NewTable(table, cols)
	if err != nil {
		return nil, fmt.Errorf("importer: create table: %w", err)
	}
	tbl.Grow(len(s.ends))
	pos := make(map[string]int, len(cols))
	for i, c := range cols {
		pos[c.Name] = i
	}
	row := make([]string, len(cols))
	start := 0
	for _, end := range s.ends {
		for i := range row {
			row[i] = ""
		}
		for _, f := range s.fields[start:end] {
			row[pos[f.Name]] = csvRoundTrip(f.Value)
		}
		start = end
		if err := tbl.AppendStrings(row); err != nil {
			return nil, fmt.Errorf("importer: load %s row %d: %w", csvPath, tbl.Rows()+1, err)
		}
	}
	return tbl, nil
}

// each yields the collected entries in file order.
func (s *entrySet) each(yield func(mxml.Entry) error) error {
	start := 0
	for _, end := range s.ends {
		if err := yield(mxml.Entry{Fields: s.fields[start:end]}); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// export writes the staged artifacts of §III-B for this entry set —
// <table>.mxml, <table>.schema.json and <table>.csv in workDir — and
// returns the document's path. xmlcsv.ConvertFile over that document
// rewrites the other two byte for byte.
func (s *entrySet) export(workDir string, meta mxml.Meta, cols []mscopedb.Column) (string, error) {
	mxmlPath := filepath.Join(workDir, meta.Table+".mxml")
	f, err := os.Create(mxmlPath)
	if err != nil {
		return "", fmt.Errorf("transform: create %s: %w", mxmlPath, err)
	}
	defer f.Close()
	doc := mxml.NewWriter(f)
	if err := doc.Open(meta); err != nil {
		return "", err
	}
	if err := s.each(doc.WriteEntry); err != nil {
		return "", err
	}
	if err := doc.Close(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("transform: close %s: %w", mxmlPath, err)
	}
	_, err = xmlcsv.WriteTable(workDir, meta, cols, s.each)
	return mxmlPath, err
}
