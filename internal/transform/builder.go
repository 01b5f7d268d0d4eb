package transform

// The parser's entries are typed and stored column by column as they
// arrive, in memory. The annotated-XML and CSV files of §III-B are an export
// (Options.Materialize), and the warehouse must equal what loading those
// files would give. The file round trips are not the identity on arbitrary
// bytes — xml.EscapeText → xml.Decoder turns invalid UTF-8 and XML-illegal
// runes into U+FFFD; encoding/csv collapses CR LF inside a quoted cell to
// LF — so the same normalizations are applied in memory: normalizeXML and
// csvRoundTrip below.

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
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

// tableBuilder is a file's table while the file is still parsing: the
// parser's Emit sink types each cell once (xmlcsv.TypeCell) and stores the
// value column-major, evolving the schema in place as the converter's
// bottom-up inference would have settled it over the whole file — columns
// in first-appearance order, types merged by xmlcsv.Widen — so the finished
// table is the one loading the staged CSV gives.
type tableBuilder struct {
	cols []column
	idx  map[string]int
	rows int
	// emptyName: some field had no name, which reading the document back
	// rejects.
	emptyName bool
	// doc, under Options.Materialize, is the annotated-XML document in
	// docFile, written as the entries arrive.
	doc     *mxml.Writer
	docFile *os.File
}

// column is one column under construction. Cells [n, rows) are empty and
// not stored yet: the column's next cell, or the end, back-fills them. typ
// is the lattice state, zero (and nothing stored) while every cell was
// empty. ints holds an int column's values or a time column's microsecond
// epochs, and stays behind as the text of those rows once the column widens
// to float.
type column struct {
	name   string
	typ    mscopedb.Type
	n      int
	ints   []int64
	floats []float64
	strs   []string
	// odd keeps, in row order, the text of every cell of a numeric column
	// that rendering the stored value would not give back: should the column
	// degrade to string it must hold what the file said ("007", "1e3", and
	// "" rather than 0 for an empty cell). An int or a time is canonical by
	// a byte test; a float column keeps the text of every cell.
	odd []oddCell
}

type oddCell struct {
	row  int
	text string
}

// add is the parser's Emit sink: type and store each field's cell, then
// recycle the entry's field storage.
func (b *tableBuilder) add(e mxml.Entry) error {
	if b.doc != nil {
		if err := b.doc.WriteEntry(e); err != nil {
			return err
		}
	}
	for k, f := range e.Fields {
		name := normalizeXML(f.Name)
		if name == "" {
			b.emptyName = true
			continue
		}
		// The hint needs no normalizing: no other text normalizes to "time".
		b.column(name, k).put(b.rows, xmlcsv.TypeCell(normalizeXML(f.Value), f.Hint))
	}
	b.rows++
	e.Release()
	return nil
}

// column finds or creates the named column. A file's records nearly always
// carry the same fields in the same order, so the column at the field's own
// position is tried before the map.
func (b *tableBuilder) column(name string, k int) *column {
	if k < len(b.cols) && b.cols[k].name == name {
		return &b.cols[k]
	}
	i, ok := b.idx[name]
	if !ok {
		if b.idx == nil {
			b.idx = make(map[string]int)
		}
		i = len(b.cols)
		b.idx[name] = i
		b.cols = append(b.cols, column{name: name})
	}
	return &b.cols[i]
}

// put stores the cell of one row. A second field of the same name in one
// record overwrites the first, though both have widened the column.
func (c *column) put(row int, v mscopedb.Value) {
	if c.n > row {
		c.n = row
		if k := len(c.odd) - 1; k >= 0 && c.odd[k].row == row {
			c.odd = c.odd[:k]
		}
		switch c.typ {
		case mscopedb.TString:
			c.strs = c.strs[:row]
		case mscopedb.TFloat:
			c.floats = c.floats[:row]
		default:
			c.ints = c.ints[:row]
		}
	}
	if t := xmlcsv.Widen(c.typ, v.Type); t != c.typ {
		c.retype(t)
	}
	if c.typ == 0 {
		return
	}
	for c.n < row {
		c.put(c.n, mscopedb.Value{})
	}
	c.n++
	switch c.typ {
	case mscopedb.TString:
		c.strs = append(room(c.strs), csvRoundTrip(v.Str))
	case mscopedb.TFloat:
		c.floats = append(room(c.floats), v.Float)
		c.odd = append(room(c.odd), oddCell{row, v.Str})
	default:
		c.ints = append(room(c.ints), v.Int)
		if !canonical(v) {
			c.odd = append(room(c.odd), oddCell{row, v.Str})
		}
	}
}

// room makes space for one more cell by doubling. Left to itself append
// grows a large slice by a quarter, which copies a long column five times
// over where doubling copies it once.
func room[E any](s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 1024))
}

// canonical reports whether rendering an int or time cell's value gives its
// text back, as Table.Widen renders: an int without a plus sign, a leading
// zero or "-0"; a time as mxml.TimeLayout formats one in UTC to the
// microsecond (TypeCell read it under the layout, which leaves open a
// one-digit hour, the fraction's separator and length, and the zone). The
// empty cell is not: its value renders as "0".
func canonical(v mscopedb.Value) bool {
	s := v.Str
	switch v.Type {
	case mscopedb.TInt:
		if s[0] == '-' {
			return s[1] != '0'
		}
		return s[0] != '+' && (s[0] != '0' || len(s) == 1)
	case mscopedb.TTime:
		if len(s) < 20 || s[13] != ':' || s[16] != ':' || s[len(s)-1] != 'Z' {
			return false
		}
		frac := s[19 : len(s)-1]
		return frac == "" || (frac[0] == '.' && len(frac) >= 2 && len(frac) <= 7 && frac[len(frac)-1] != '0')
	}
	return false
}

// retype moves the column to a wider type, converting the cells it holds.
func (c *column) retype(to mscopedb.Type) {
	from := c.typ
	c.typ = to
	switch {
	case from == mscopedb.TInt && to == mscopedb.TFloat:
		c.floats = make([]float64, c.n, cap(c.ints))
		for i, v := range c.ints {
			c.floats[i] = float64(v)
		}
		for _, o := range c.odd {
			if o.text != "" { // "-0" is the int 0 and the float -0.0
				c.floats[o.row], _ = strconv.ParseFloat(o.text, 64)
			}
		}
	case from != 0 && to == mscopedb.TString:
		c.strs = make([]string, c.n, max(cap(c.ints), cap(c.floats)))
		odd := c.odd
		for row := range c.strs {
			switch {
			case len(odd) > 0 && odd[0].row == row:
				c.strs[row], odd = odd[0].text, odd[1:]
			case from == mscopedb.TTime:
				c.strs[row] = time.UnixMicro(c.ints[row]).UTC().Format(mxml.TimeLayout)
			default:
				c.strs[row] = strconv.FormatInt(c.ints[row], 10)
			}
		}
		c.ints, c.floats, c.odd = nil, nil, nil
	}
}

// schema settles the column set, reproducing the converter's failure modes
// (and exact errors) for degenerate documents. mxmlPath is the path an
// export writes the document to — reported, not necessarily created. A
// column that held only empty cells loads as strings.
func (b *tableBuilder) schema(mxmlPath string) ([]mscopedb.Column, error) {
	if b.emptyName {
		return nil, fmt.Errorf("xmlcsv: read %s: mxml: field without name", mxmlPath)
	}
	if len(b.cols) == 0 {
		return nil, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	cols := make([]mscopedb.Column, len(b.cols))
	for i := range b.cols {
		c := &b.cols[i]
		if c.typ == 0 {
			c.typ = mscopedb.TString
		}
		cols[i] = mscopedb.Column{Name: c.name, Type: c.typ}
	}
	return cols, nil
}

// table back-fills every column to the row count and hands the columns to
// a warehouse table.
func (b *tableBuilder) table(name string, cols []mscopedb.Column) (*mscopedb.Table, error) {
	data := make([]any, len(b.cols))
	for i := range b.cols {
		c := &b.cols[i]
		for c.n < b.rows {
			c.put(c.n, mscopedb.Value{})
		}
		switch c.typ {
		case mscopedb.TString:
			data[i] = c.strs
		case mscopedb.TFloat:
			data[i] = c.floats
		default:
			data[i] = c.ints
		}
	}
	tbl, err := mscopedb.NewTableFrom(name, cols, data)
	if err != nil {
		return nil, fmt.Errorf("importer: create table: %w", err)
	}
	return tbl, nil
}

// openDoc starts the annotated-XML document Options.Materialize exports.
func (b *tableBuilder) openDoc(path string, meta mxml.Meta) (err error) {
	if b.docFile, err = os.Create(path); err != nil {
		return fmt.Errorf("transform: create %s: %w", path, err)
	}
	b.doc = mxml.NewWriter(b.docFile)
	return b.doc.Open(meta)
}

// export completes the staged artifacts of §III-B: it closes the document
// and has the converter derive <table>.schema.json and <table>.csv from it,
// as the staged pipeline did.
func (b *tableBuilder) export(workDir string) error {
	if err := b.doc.Close(); err != nil {
		return err
	}
	if err := b.docFile.Close(); err != nil {
		return fmt.Errorf("transform: close %s: %w", b.docFile.Name(), err)
	}
	_, err := xmlcsv.ConvertFile(b.docFile.Name(), workDir)
	return err
}
