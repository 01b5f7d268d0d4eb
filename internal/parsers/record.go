package parsers

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// CellKind says where a cell's value is.
type CellKind uint8

const (
	CellText CellKind = iota // the bytes of Text, as the log had them
	CellInt                  // Int, which the parser computed; Text is unset
	CellTime                 // likewise a time, Int seconds and Nsec nanoseconds since the Unix epoch
)

// Cell is one named value of a record. A parser that has already read a
// value — a normalized Times field, a stitched sample time, the slow log's
// ua and ud — hands over the value, not a rendering of it to parse back.
type Cell struct {
	Name string
	// Hint is "time" on every CellTime cell, as on the mxml field it becomes.
	Hint string
	Text []byte
	Int  int64
	Nsec int32
	Kind CellKind
}

// timeCell is the cell of a time the parser computed.
func timeCell(name string, ts time.Time) Cell {
	return Cell{Name: name, Hint: "time", Kind: CellTime, Int: ts.Unix(), Nsec: int32(ts.Nanosecond())}
}

// AppendText appends the cell's text: Text itself, an int in base 10, a
// time in mxml.TimeLayout, in UTC.
func (c *Cell) AppendText(dst []byte) []byte {
	switch c.Kind {
	case CellInt:
		return strconv.AppendInt(dst, c.Int, 10)
	case CellTime:
		return time.Unix(c.Int, int64(c.Nsec)).UTC().AppendFormat(dst, mxml.TimeLayout)
	}
	return append(dst, c.Text...)
}

// Record is the cells of one log record, in order. The parser owns it and
// reuses it: the cells, and the bytes under every Text — the scanner's line,
// or buf for a record that spans lines — are valid only until the sink
// returns.
type Record struct {
	Cells []Cell
	buf   []byte
}

// Sink receives each record of a parse.
type Sink func(*Record) error

func (r *Record) reset() {
	if r.Cells == nil { // sized once a parse, for the widest record a format emits
		r.Cells, r.buf = make([]Cell, 0, 32), make([]byte, 0, 512)
	}
	r.Cells, r.buf = r.Cells[:0], r.buf[:0]
}

// next extends the record by one cell, for the caller to fill in place: a
// cell is too wide to build and copy in for every field of every line.
func (r *Record) next() *Cell {
	if n := len(r.Cells); n < cap(r.Cells) {
		r.Cells = r.Cells[:n+1]
	} else {
		r.Cells = append(r.Cells, Cell{})
	}
	return &r.Cells[len(r.Cells)-1]
}

func (r *Record) add(name string, text []byte) {
	c := r.next()
	c.Name, c.Hint, c.Text, c.Kind = name, "", text, CellText
}

func (r *Record) addTime(name string, ts time.Time) { *r.next() = timeCell(name, ts) }

// addGroups adds a cell per named group of a match of m over s.
func (r *Record) addGroups(m *matcher, s []byte, slots []int) {
	for i, name := range m.names {
		var text []byte
		if slots[2*i] >= 0 {
			text = s[slots[2*i]:slots[2*i+1]]
		}
		r.add(name, text)
	}
}

// hold copies b into the record's buffer, for text that must outlive the
// scanner's line. Growing the buffer leaves earlier copies where they were.
func (r *Record) hold(b []byte) []byte {
	n := len(r.buf)
	r.buf = append(r.buf, b...)
	return r.buf[n:]
}

// find returns the first cell with the name, or nil.
func (r *Record) find(name string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Name == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// text is the cell's text, rendered into the buffer for a computed cell.
func (r *Record) text(c *Cell) []byte {
	if c.Kind == CellText {
		return c.Text
	}
	n := len(r.buf)
	r.buf = c.AppendText(r.buf)
	return r.buf[n:]
}

// normalizeTime reads the cell under a Times rule's layout.
func (r *Record) normalizeTime(c *Cell, layout string) error {
	ts, err := time.Parse(layout, string(r.text(c)))
	if err != nil {
		return fmt.Errorf("parsers: normalize time field %q: %w", c.Name, err)
	}
	*c = timeCell(c.Name, ts)
	return nil
}

// Entries builds the mxml.Entry of a record for the callers that still take
// entries: the document of --materialize and the benchmark harness. An entry's values are slices of one string made per
// record, so it costs one allocation however many cells it has.
type Entries struct {
	computed []byte // the text of one computed cell
}

// Entry returns the record as an entry with pooled field storage; unlike
// the record, the entry is the caller's to keep.
func (a *Entries) Entry(r *Record) mxml.Entry {
	size := 0
	for i := range r.Cells {
		if size += len(r.Cells[i].Text); r.Cells[i].Kind != CellText {
			size += len(mxml.TimeLayout) // no computed value renders longer
		}
	}
	// The builder is sized once, so what it returns stays where it is.
	var sb strings.Builder
	sb.Grow(size)
	e := mxml.NewEntry()
	if cap(e.Fields) < len(r.Cells) {
		e.Fields = make([]mxml.Field, 0, len(r.Cells))
	}
	e.Fields = e.Fields[:len(r.Cells)]
	for i := range r.Cells {
		c, start := &r.Cells[i], sb.Len()
		if c.Kind == CellText {
			sb.Write(c.Text)
		} else {
			a.computed = c.AppendText(a.computed[:0])
			sb.Write(a.computed)
		}
		f := &e.Fields[i] // filled in place: a field is too wide to build and copy in
		f.Name, f.Value, f.Hint = c.Name, sb.String()[start:], c.Hint
	}
	return e
}

// entrySink is the adapter behind Parse.
func entrySink(emit Emit) Sink {
	var a Entries
	return func(r *Record) error { return emit(a.Entry(r)) }
}
