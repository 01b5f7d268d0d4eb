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
	"math"
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

// Builder is the one column builder: its record sink, Add, types each cell
// once, from the bytes the parser holds (xmlcsv.TypeBytes) or not at all
// when the parser computed the value, and stores it column-major, evolving
// the schema in place as the converter's bottom-up inference would have
// settled it over the same records — columns in first-appearance order,
// types merged by xmlcsv.Widen. Text that must be kept is copied into
// per-column arenas: a stored cell costs no allocation. The batch ingest
// builds a whole file in one (tableBuilder); the live loader merges blocks
// of a source's records into its table (Target.Merge), and Reset readies a
// merged block for the next.
type Builder struct {
	cols []column
	idx  map[string]int
	rows int
	// emptyName: some field had no name, which no table can hold.
	emptyName bool

	colOf   []int  // the column of each cell of the record in hand
	scratch []byte // one cell's normalized or rendered text
	err     error  // a column outgrew its arena
	// grow, when set, is the capacity a full run of n cells, or bytes of
	// them, grows to; unset, the run doubles.
	grow func(n int) int
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
	last   int  // in the record in hand, the last cell of this column
	seen   bool // some record of the block has the field
	ints   []int64
	floats []float64
	strs   texts
	// odd keeps, in row order, the text of every cell of a numeric column
	// that rendering the stored value would not give back: should the column
	// degrade to string it must hold what the file said ("007", "1e3", and
	// "" rather than 0 for an empty cell). An int or a time is canonical by
	// a byte test; a float column keeps the text of every cell. Odd text k,
	// the cell of row oddRows[k], ends at oddEnds[k]; the builder alone
	// reads it, so its bytes are reused from block to block.
	odd     []byte
	oddEnds []uint32
	oddRows []uint32
}

// texts is cell texts end to end in one arena, text i being
// arena[offs[i]:offs[i+1]]. The arena is a strings.Builder so that a
// finished string column is slices of one string that was never copied.
// A table that merged a block holds its texts, so they are never
// overwritten: the next block's follow them in the arena, and only the
// block's own move when it fills up.
type texts struct {
	arena *strings.Builder
	offs  []uint32
	hint  int // the last block's bytes
}

func (t *texts) at(i int) string { return t.arena.String()[t.offs[i]:t.offs[i+1]] }

// addText appends one text to t.
func (b *Builder) addText(t *texts, s []byte) {
	if t.arena == nil {
		t.arena = new(strings.Builder)
	}
	if len(t.offs) == 0 {
		t.offs = append(t.offs, uint32(t.arena.Len()))
	}
	if t.arena.Len()+len(s) > math.MaxUint32 {
		b.err = fmt.Errorf("transform: a column's text exceeds %d bytes", uint32(math.MaxUint32))
		return
	}
	if t.arena.Cap()-t.arena.Len() < len(s) {
		// A Builder grows itself by doubling at least; an empty one takes
		// the size it is told: what the block holds doubled, and room for
		// four blocks like the last.
		base := t.offs[0]
		block := t.arena.String()[base:]
		for i := range t.offs {
			t.offs[i] -= base
		}
		t.arena.Reset()
		t.arena.Grow(max(b.grown(len(block)), len(block)+len(s), 4*t.hint))
		t.arena.WriteString(block)
	}
	t.arena.Write(s)
	t.offs = append(room(b, t.offs), uint32(t.arena.Len()))
}

// oddText is the kept text k of c.
func (c *column) oddText(k int) []byte {
	start := uint32(0)
	if k > 0 {
		start = c.oddEnds[k-1]
	}
	return c.odd[start:c.oddEnds[k]]
}

// Add is the parser's record sink: type and store each cell. A cell that a
// later cell of the same record shadows, by carrying the same name, is not
// stored, though it widens the column as if it had been.
func (b *Builder) Add(r *parsers.Record) error {
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
			b.cols[i].last, b.cols[i].seen = k, true
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

// Reset empties the builder for the next block of the same source. The
// columns keep their names and their storage, which the next block reuses;
// their string arenas keep the texts the table the block merged into
// holds.
func (b *Builder) Reset() {
	for i := range b.cols {
		c := &b.cols[i]
		c.typ, c.n, c.seen = 0, 0, false
		c.ints, c.floats, c.odd, c.oddEnds, c.oddRows = c.ints[:0], c.floats[:0], c.odd[:0], c.oddEnds[:0], c.oddRows[:0]
		if len(c.strs.offs) > 0 {
			c.strs.hint = c.strs.arena.Len() - int(c.strs.offs[0])
		}
		c.strs.offs = c.strs.offs[:0]
	}
	b.rows, b.emptyName, b.err = 0, false, nil
}

// Values appends to dst[:0] the cells of the named column, row by row, and
// returns it: an empty cell has no type, a string cell's Str is its text,
// and an int cell's Float its value. A column the block lacks gives none.
func (b *Builder) Values(name string, dst []mscopedb.Value) []mscopedb.Value {
	dst = dst[:0]
	i, ok := b.idx[name]
	if !ok {
		return dst
	}
	c, k := &b.cols[i], 0
	for row := 0; row < b.rows; row++ {
		var v mscopedb.Value
		odd := k < len(c.oddRows) && int(c.oddRows[k]) == row
		switch {
		case row >= c.n || (odd && len(c.oddText(k)) == 0):
		case c.typ == mscopedb.TString:
			if v.Str = c.strs.at(row); v.Str != "" {
				v.Type = mscopedb.TString
			}
		case c.typ == mscopedb.TFloat:
			v = mscopedb.Value{Type: mscopedb.TFloat, Float: c.floats[row]}
		default:
			v = mscopedb.Value{Type: c.typ, Int: c.ints[row], Float: float64(c.ints[row])}
		}
		if odd {
			k++
		}
		dst = append(dst, v)
	}
	return dst
}

// Times the layout reads back: years 0 to 9999.
var minTime, maxTime = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()

// value types one cell bound for column c, and returns the text to keep
// should the value not render back to it: nil when it does. A value the
// parser computed is its own type — an int is an int, a time within the
// layout's years and whole in microseconds is a time — and has no text
// unless the column is, or now turns, of another type; then the text the
// entry adapter would have rendered is typed like any other.
func (b *Builder) value(cell *parsers.Cell, c *column) (mscopedb.Value, []byte) {
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
func (b *Builder) column(name string) int {
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
func (b *Builder) put(c *column, row int, v mscopedb.Value, text []byte) {
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
	c.odd = append(roomFor(b, c.odd, len(text)), text...)
	c.oddEnds = append(room(b, c.oddEnds), uint32(len(c.odd)))
}

// fill back-fills the column's empty cells up to the row count.
func (b *Builder) fill(c *column) {
	for c.n < b.rows && c.typ != 0 {
		b.put(c, c.n, mscopedb.Value{}, nil)
	}
}

// room makes space for one more cell of a column: see grown.
func room[E any](b *Builder, s []E) []E { return roomFor(b, s, 1) }

// roomFor makes space for n more cells, or bytes of them.
func roomFor[E any](b *Builder, s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(b.grown(len(s)), len(s)+n)-len(s))
}

// grown is the capacity for a full run of n cells, or bytes of them, to grow
// to. Left to itself append grows a large slice by a quarter, which copies
// a long column five times over; doubling copies it once.
func (b *Builder) grown(n int) int {
	if b.grow != nil {
		return b.grow(n)
	}
	return max(2*n, 64)
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
func (b *Builder) retype(c *column, to mscopedb.Type) {
	from := c.typ
	c.typ = to
	switch {
	case from == mscopedb.TInt && to == mscopedb.TFloat:
		c.floats = slices.Grow(c.floats[:0], cap(c.ints))[:c.n]
		for i, v := range c.ints {
			c.floats[i] = float64(v)
		}
		for k, row := range c.oddRows {
			if text := c.oddText(k); len(text) > 0 { // "-0" is the int 0 and the float -0.0
				c.floats[row], _ = strconv.ParseFloat(string(text), 64)
			}
		}
	case from != 0 && to == mscopedb.TString:
		c.strs.offs = slices.Grow(c.strs.offs[:0], max(cap(c.ints), cap(c.floats))+1)
		k := 0
		var cell []byte
		for row := 0; row < c.n; row++ {
			switch {
			case k < len(c.oddRows) && int(c.oddRows[k]) == row:
				cell = append(cell[:0], c.oddText(k)...)
				k++
			case from == mscopedb.TTime:
				cell = time.UnixMicro(c.ints[row]).UTC().AppendFormat(cell[:0], mxml.TimeLayout)
			default:
				cell = strconv.AppendInt(cell[:0], c.ints[row], 10)
			}
			b.addText(&c.strs, cell)
		}
		c.ints, c.floats, c.odd, c.oddEnds, c.oddRows = c.ints[:0], c.floats[:0], c.odd[:0], c.oddEnds[:0], c.oddRows[:0]
	}
}

// data is the column's cells of rows [lo, hi) as a table takes them.
func (c *column) data(lo, hi int) mscopedb.ColumnData {
	switch {
	case c.typ == mscopedb.TString:
		return mscopedb.ColumnData{Arena: c.strs.arena.String(), Offsets: c.strs.offs[lo : hi+1]}
	case c.typ == mscopedb.TFloat:
		return mscopedb.ColumnData{Floats: c.floats[lo:hi]}
	}
	return mscopedb.ColumnData{Ints: c.ints[lo:hi]}
}
