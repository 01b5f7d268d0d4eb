package transform

// The parser's records are typed and stored column by column as they
// arrive, in memory. The annotated-XML and CSV files of §III-B are an export
// (Options.Materialize), and the warehouse must equal what loading those
// files would give. The file round trips are not the identity on arbitrary
// bytes — xml.EscapeText → xml.Decoder turns invalid UTF-8 and XML-illegal
// runes into U+FFFD; encoding/csv collapses CR LF inside a quoted cell to
// LF — so the same normalizations are applied in memory, to a cell's bytes:
// normalizeXML and csvRoundTrip below.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
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

// xmlClean reports whether the annotated-XML write→read round trip is the
// identity on s: plain ASCII, the overwhelmingly common case.
func xmlClean[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b >= 0x80 || (b < 0x20 && b != '\t' && b != '\n' && b != '\r') {
			return false
		}
	}
	return true
}

// normalizeXML appends to dst what the annotated-XML write→read round trip
// makes of one text: xml.EscapeText replaces invalid UTF-8 bytes and
// XML-illegal runes with U+FFFD and escapes everything else reversibly
// (including \t \n \r, which therefore dodge the XML parser's line-end and
// attribute-value normalizations). Text that is xmlClean needs none of it.
func normalizeXML(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRune(s[i:])
		if (r == utf8.RuneError && width == 1) || !xmlCharOK(r) {
			r = utf8.RuneError
		}
		dst = utf8.AppendRune(dst, r)
		i += width
	}
	return dst
}

// csvRoundTrip applies the converter-CSV write→read round trip: a cell
// containing CR LF is quoted on write, and encoding/csv's reader treats a
// carriage return followed by a newline inside a quoted cell as a single
// newline. Every other cell the writer produces reads back verbatim.
func csvRoundTrip(s []byte) []byte {
	if !bytes.Contains(s, []byte("\r\n")) {
		return s
	}
	return bytes.ReplaceAll(s, []byte("\r\n"), []byte("\n"))
}

// tableBuilder is a file's table while the file is still parsing: the
// parser's record sink types each cell once, from the bytes the parser holds
// (xmlcsv.TypeBytes) or not at all when the parser computed the value, and
// stores it column-major, evolving the schema in place as the converter's
// bottom-up inference would have settled it over the whole file — columns
// in first-appearance order, types merged by xmlcsv.Widen — so the finished
// table is the one loading the staged CSV gives. Text that must be kept is
// copied into per-column arenas: a stored cell costs no allocation.
type tableBuilder struct {
	cols []column
	idx  map[string]int
	rows int
	// emptyName: some field had no name, which reading the document back
	// rejects.
	emptyName bool
	// doc, under Options.Materialize, is the annotated-XML document in
	// docFile, written as the records arrive.
	doc     *mxml.Writer
	docFile *os.File
	entries parsers.Entries

	colOf   []int  // the column of each cell of the record in hand
	scratch []byte // one cell's normalized or rendered text
	// src is the file being parsed, of size bytes: how far it has been read
	// says how much further the columns will grow.
	src  io.Seeker
	size int64
	err  error // a column outgrew its arena
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
	last   int // in the record in hand, the last cell of this column
	ints   []int64
	floats []float64
	strs   texts
	// odd keeps, in row order, the text of every cell of a numeric column
	// that rendering the stored value would not give back: should the column
	// degrade to string it must hold what the file said ("007", "1e3", and
	// "" rather than 0 for an empty cell). An int or a time is canonical by
	// a byte test; a float column keeps the text of every cell. oddRows[i]
	// is the row of odd text i.
	odd     texts
	oddRows []uint32
}

// texts is cell texts end to end in one arena, text i ending at ends[i]. The
// arena is a strings.Builder so that a finished string column is slices of
// one string that was never copied.
type texts struct {
	arena *strings.Builder
	ends  []uint32
}

func (t *texts) at(i int) string {
	start := uint32(0)
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.arena.String()[start:t.ends[i]]
}

// strings returns the texts as slices of the arena.
func (t *texts) strings() []string {
	out := make([]string, len(t.ends))
	for i := range out {
		out[i] = t.at(i)
	}
	return out
}

// addText appends one text to t.
func (b *tableBuilder) addText(t *texts, s []byte) {
	n := 0
	if t.arena != nil {
		n = t.arena.Len()
	}
	if n+len(s) > math.MaxUint32 {
		b.err = fmt.Errorf("transform: a column's text exceeds %d bytes", uint32(math.MaxUint32))
		return
	}
	if t.arena == nil || t.arena.Cap()-n < len(s) {
		// A Builder grows itself by doubling at least; a fresh one takes the
		// size it is told.
		grown := new(strings.Builder)
		grown.Grow(max(b.grown(n), n+len(s)))
		if t.arena != nil {
			grown.WriteString(t.arena.String())
		}
		t.arena = grown
	}
	t.arena.Write(s)
	t.ends = append(room(b, t.ends), uint32(t.arena.Len()))
}

// add is the parser's record sink: type and store each cell. A cell that a
// later cell of the same record shadows, by carrying the same name, is not
// stored, though it widens the column as if it had been.
func (b *tableBuilder) add(r *parsers.Record) error {
	if b.doc != nil {
		e := b.entries.Entry(r)
		err := b.doc.WriteEntry(e)
		e.Release()
		if err != nil {
			return err
		}
	}
	b.colOf = b.colOf[:0]
	for k := range r.Cells {
		// A file's records nearly always carry the same fields in the same
		// order: the column at the cell's own position is tried first, and a
		// name that equals a column's needs no normalizing.
		name, i := r.Cells[k].Name, k
		if k >= len(b.cols) || b.cols[k].name != name {
			if !xmlClean(name) {
				name = string(normalizeXML(nil, []byte(name)))
			}
			if i = -1; name == "" {
				b.emptyName = true
			} else {
				i = b.column(name)
			}
		}
		if i >= 0 {
			b.cols[i].last = k
		}
		b.colOf = append(b.colOf, i)
	}
	for k, i := range b.colOf {
		if i < 0 {
			continue
		}
		c := &b.cols[i]
		v, text := b.value(&r.Cells[k], c)
		if c.last == k {
			b.put(c, b.rows, v, text)
		} else if t := xmlcsv.Widen(c.typ, v.Type); t != c.typ {
			b.retype(c, t)
		}
	}
	b.rows++
	return b.err
}

// Times the layout reads back: years 0 to 9999.
var minTime, maxTime = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()

// value types one cell bound for column c, and returns the text to keep
// should the value not render back to it: nil when it does. A value the
// parser computed is its own type — an int is an int, a time within the
// layout's years and whole in microseconds is a time — and has no text
// unless the column is, or now turns, of another type; then the text the
// entry adapter would have rendered is typed like any other.
func (b *tableBuilder) value(cell *parsers.Cell, c *column) (mscopedb.Value, []byte) {
	var v mscopedb.Value
	switch cell.Kind {
	case parsers.CellText:
		text := cell.Text
		if !xmlClean(text) {
			b.scratch = normalizeXML(b.scratch[:0], text)
			text = b.scratch
		}
		// The hint needs no normalizing: no other text normalizes to "time".
		return xmlcsv.TypeBytes(text, cell.Hint), text
	case parsers.CellInt:
		v = mscopedb.Value{Type: mscopedb.TInt, Int: cell.Int, Float: float64(cell.Int)}
	case parsers.CellTime:
		if cell.Int >= minTime && cell.Int < maxTime && cell.Nsec%1000 == 0 {
			v = mscopedb.Value{Type: mscopedb.TTime, Int: cell.Int*1e6 + int64(cell.Nsec/1000)}
		}
	}
	if v.Type != 0 && xmlcsv.Widen(c.typ, v.Type) == v.Type {
		return v, nil
	}
	b.scratch = cell.AppendText(b.scratch[:0])
	return xmlcsv.TypeBytes(b.scratch, cell.Hint), b.scratch
}

// column finds or creates the named column.
func (b *tableBuilder) column(name string) int {
	i, ok := b.idx[name]
	if !ok {
		if b.idx == nil {
			b.idx = make(map[string]int)
		}
		i = len(b.cols)
		b.idx[name] = i
		b.cols = append(b.cols, column{name: name})
	}
	return i
}

// put stores the cell of one row: its value, and text when rendering the
// value would not give the text back.
func (b *tableBuilder) put(c *column, row int, v mscopedb.Value, text []byte) {
	if t := xmlcsv.Widen(c.typ, v.Type); t != c.typ {
		b.retype(c, t)
	}
	if c.typ == 0 {
		return
	}
	for c.n < row {
		b.put(c, c.n, mscopedb.Value{}, nil)
	}
	c.n++
	switch c.typ {
	case mscopedb.TString:
		b.addText(&c.strs, csvRoundTrip(text))
		return
	case mscopedb.TFloat:
		c.floats = append(room(b, c.floats), v.Float)
	default:
		c.ints = append(room(b, c.ints), v.Int)
		if canonical(v.Type, text) {
			return
		}
	}
	c.oddRows = append(room(b, c.oddRows), uint32(row))
	b.addText(&c.odd, text)
}

// room makes space for one more cell of a column: see grown.
func room[E any](b *tableBuilder, s []E) []E {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, b.grown(len(s))-len(s))
}

// readAhead is how far past the last record the parser may have read its
// file: the line scanner's and the XML scanner's buffers start at 64 KiB.
const readAhead = 64 << 10

// grown is the capacity for a full run of n cells, or bytes of them, to grow
// to. Left to itself append grows a large slice by a quarter, which copies
// a long column five times over; doubling copies it once; and once a file
// is eight thousand rows in, how much of it has been read says where its
// columns will end, to within the parser's read-ahead, and they are sized
// once, for that.
func (b *tableBuilder) grown(n int) int {
	double := max(2*n, 1024)
	if b.src == nil || b.rows < 8192 {
		return double
	}
	done, err := b.src.Seek(0, io.SeekCurrent)
	if err != nil || done < 2*readAhead {
		return double
	}
	// At most twice too many, if all of the read-ahead is still unparsed.
	done -= readAhead
	return n + max(n/64, int(float64(n)*float64(b.size-done)/float64(done)))
}

// canonical reports whether rendering an int or time cell's value gives its
// text back, as Table.Widen renders: an int without a plus sign, a leading
// zero or "-0"; a time as mxml.TimeLayout formats one in UTC to the
// microsecond (TypeBytes read it under the layout, which leaves open a
// one-digit hour, the fraction's separator and length, and the zone). A
// value that came without text is one the parser computed, and renders as
// the text it stands for. The empty cell is not canonical: its value
// renders as "0".
func canonical(typ mscopedb.Type, s []byte) bool {
	switch typ {
	case mscopedb.TInt:
		if len(s) == 0 {
			return true
		}
		if s[0] == '-' {
			return s[1] != '0'
		}
		return s[0] != '+' && (s[0] != '0' || len(s) == 1)
	case mscopedb.TTime:
		if len(s) == 0 {
			return true
		}
		if len(s) < 20 || s[13] != ':' || s[16] != ':' || s[len(s)-1] != 'Z' {
			return false
		}
		frac := s[19 : len(s)-1]
		return len(frac) == 0 || (frac[0] == '.' && len(frac) >= 2 && len(frac) <= 7 && frac[len(frac)-1] != '0')
	}
	return false
}

// retype moves the column to a wider type, converting the cells it holds.
func (b *tableBuilder) retype(c *column, to mscopedb.Type) {
	from := c.typ
	c.typ = to
	switch {
	case from == mscopedb.TInt && to == mscopedb.TFloat:
		c.floats = make([]float64, c.n, cap(c.ints))
		for i, v := range c.ints {
			c.floats[i] = float64(v)
		}
		for k, row := range c.oddRows {
			if text := c.odd.at(k); text != "" { // "-0" is the int 0 and the float -0.0
				c.floats[row], _ = strconv.ParseFloat(text, 64)
			}
		}
	case from != 0 && to == mscopedb.TString:
		c.strs.ends = make([]uint32, 0, max(cap(c.ints), cap(c.floats)))
		k := 0
		var cell []byte
		for row := 0; row < c.n; row++ {
			switch {
			case k < len(c.oddRows) && int(c.oddRows[k]) == row:
				cell = append(cell[:0], c.odd.at(k)...)
				k++
			case from == mscopedb.TTime:
				cell = time.UnixMicro(c.ints[row]).UTC().AppendFormat(cell[:0], mxml.TimeLayout)
			default:
				cell = strconv.AppendInt(cell[:0], c.ints[row], 10)
			}
			b.addText(&c.strs, cell)
		}
		c.ints, c.floats, c.odd, c.oddRows = nil, nil, texts{}, nil
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
			b.put(c, c.n, mscopedb.Value{}, nil)
		}
		switch c.typ {
		case mscopedb.TString:
			data[i] = c.strs.strings()
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
