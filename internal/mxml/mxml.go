// Package mxml defines the annotated-XML intermediate representation that
// mScopeParsers emit (paper Section III-B2): raw log lines are wrapped in
// <log>/<entry> elements with named <f> fields, enriching the
// semi-structured text with monitor-specific semantics. The mScope
// XMLtoCSV Converter consumes this representation to infer warehouse
// schemas and produce load files.
//
// The representation is deliberately schema-free: field sets may vary
// entry to entry (the converter unions them), and values are strings with
// an optional type hint ("time" for normalized timestamps).
package mxml

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"sync"
)

// TimeLayout is the normalized timestamp encoding parsers emit for fields
// hinted as times: RFC3339 with nanoseconds, always UTC.
const TimeLayout = "2006-01-02T15:04:05.999999999Z07:00"

// Field is one named value of an entry.
type Field struct {
	// Name is the column-candidate name.
	Name string
	// Value is the (string-encoded) value.
	Value string
	// Hint optionally declares the value's type: "time" is the only hint
	// parsers emit (layouts vary too much to infer reliably); everything
	// else is inferred bottom-up by the converter.
	Hint string
}

// Entry is one record: an ordered field list.
type Entry struct {
	Fields []Field
}

// fieldPool recycles field storage between entries. Parsers allocate one
// entry per record on the hot ingest path; pooling the backing arrays
// removes that per-record allocation. Ownership transfers with the entry:
// a sink that copies what it needs calls Release, a sink that retains the
// entry simply never does (the pool misses and allocates fresh storage,
// which is the pre-pool behavior).
var fieldPool = sync.Pool{
	// Start at the widest schema any built-in monitor emits (collectl's 17
	// columns): a pool miss then costs one allocation per record instead of
	// a 1→2→4→8→16 doubling chain.
	New: func() any { s := make([]Field, 0, 17); return &s },
}

// boxPool recycles the pointers fieldPool's slices travel in, so that
// neither taking an entry nor releasing one allocates.
var boxPool sync.Pool

// NewEntry returns an entry whose field storage may be recycled from a
// previous entry's Release. Use it on hot paths; the zero Entry remains
// valid everywhere else.
func NewEntry() Entry {
	p := fieldPool.Get().(*[]Field)
	e := Entry{Fields: (*p)[:0]}
	*p = nil
	boxPool.Put(p)
	return e
}

// Release returns the entry's field storage to the pool and clears the
// entry. Only call it when no reference to the fields outlives the call.
func (e *Entry) Release() {
	if cap(e.Fields) == 0 {
		return
	}
	p, _ := boxPool.Get().(*[]Field)
	if p == nil {
		p = new([]Field)
	}
	*p = e.Fields[:0]
	fieldPool.Put(p)
	e.Fields = nil
}

// Get returns the named field's value and whether it exists.
func (e *Entry) Get(name string) (string, bool) {
	for _, f := range e.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return "", false
}

// Add appends a field.
func (e *Entry) Add(name, value string) {
	e.Fields = append(e.Fields, Field{Name: name, Value: value})
}

// Meta describes the document: which monitor produced the log, on which
// host, and the warehouse table it should load into.
type Meta struct {
	Source string // monitor name, e.g. "apache-event" or "collectl"
	Host   string // node name, e.g. "apache"
	Table  string // target warehouse table, e.g. "apache_event"
}

// Writer streams a document: Open, WriteEntry..., Close.
type Writer struct {
	bw     *bufio.Writer
	opened bool
	closed bool
	n      int
}

// NewWriter wraps w; the caller owns the underlying writer's lifecycle.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Open emits the document element. It must be called exactly once.
func (w *Writer) Open(m Meta) error {
	if w.opened {
		return fmt.Errorf("mxml: document already opened")
	}
	if m.Table == "" {
		return fmt.Errorf("mxml: meta without table name")
	}
	w.opened = true
	_, err := fmt.Fprintf(w.bw, "<log source=%s host=%s table=%s>\n",
		attr(m.Source), attr(m.Host), attr(m.Table))
	if err != nil {
		return fmt.Errorf("mxml: write open: %w", err)
	}
	return nil
}

// WriteEntry emits one entry element.
func (w *Writer) WriteEntry(e Entry) error {
	if !w.opened || w.closed {
		return fmt.Errorf("mxml: WriteEntry outside open document")
	}
	if _, err := w.bw.WriteString(" <entry>"); err != nil {
		return fmt.Errorf("mxml: write entry: %w", err)
	}
	for _, f := range e.Fields {
		var err error
		if f.Hint != "" {
			_, err = fmt.Fprintf(w.bw, "<f n=%s t=%s>%s</f>", attr(f.Name), attr(f.Hint), esc(f.Value))
		} else {
			_, err = fmt.Fprintf(w.bw, "<f n=%s>%s</f>", attr(f.Name), esc(f.Value))
		}
		if err != nil {
			return fmt.Errorf("mxml: write field: %w", err)
		}
	}
	if _, err := w.bw.WriteString("</entry>\n"); err != nil {
		return fmt.Errorf("mxml: write entry: %w", err)
	}
	w.n++
	return nil
}

// Entries returns the number of entries written so far.
func (w *Writer) Entries() int { return w.n }

// Close emits the closing element and flushes.
func (w *Writer) Close() error {
	if !w.opened || w.closed {
		return fmt.Errorf("mxml: Close outside open document")
	}
	w.closed = true
	if _, err := w.bw.WriteString("</log>\n"); err != nil {
		return fmt.Errorf("mxml: write close: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("mxml: flush: %w", err)
	}
	return nil
}

func attr(s string) string {
	var b []byte
	b = append(b, '"')
	b = append(b, []byte(escStr(s))...)
	b = append(b, '"')
	return string(b)
}

func esc(s string) string { return escStr(s) }

func escStr(s string) string {
	var buf []byte
	if err := xml.EscapeText((*sliceWriter)(&buf), []byte(s)); err != nil {
		// EscapeText to a memory buffer cannot fail.
		panic(fmt.Sprintf("mxml: escape: %v", err))
	}
	return string(buf)
}

type sliceWriter []byte

func (s *sliceWriter) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// ReadDoc streams a document from r, calling onEntry for each entry. It
// returns the document meta. Reading is token-based so multi-hundred-MB
// documents do not materialize in memory.
func ReadDoc(r io.Reader, onEntry func(Entry) error) (Meta, error) {
	dec := xml.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	var meta Meta
	sawLog := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return meta, fmt.Errorf("mxml: read token: %w", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch se.Name.Local {
		case "log":
			sawLog = true
			for _, a := range se.Attr {
				switch a.Name.Local {
				case "source":
					meta.Source = a.Value
				case "host":
					meta.Host = a.Value
				case "table":
					meta.Table = a.Value
				}
			}
		case "entry":
			if !sawLog {
				return meta, fmt.Errorf("mxml: entry before log element")
			}
			e, err := decodeEntry(dec)
			if err != nil {
				return meta, err
			}
			if err := onEntry(e); err != nil {
				return meta, err
			}
		}
	}
	if !sawLog {
		return meta, fmt.Errorf("mxml: no log element found")
	}
	return meta, nil
}

// decodeEntry consumes tokens until the entry's end element.
func decodeEntry(dec *xml.Decoder) (Entry, error) {
	var e Entry
	for {
		tok, err := dec.Token()
		if err != nil {
			return e, fmt.Errorf("mxml: read entry: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "f" {
				return e, fmt.Errorf("mxml: unexpected element <%s> in entry", t.Name.Local)
			}
			var f Field
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "n":
					f.Name = a.Value
				case "t":
					f.Hint = a.Value
				}
			}
			val, err := readText(dec)
			if err != nil {
				return e, err
			}
			f.Value = val
			if f.Name == "" {
				return e, fmt.Errorf("mxml: field without name")
			}
			e.Fields = append(e.Fields, f)
		case xml.EndElement:
			if t.Name.Local == "entry" {
				return e, nil
			}
		}
	}
}

// readText consumes character data until the field's end element.
func readText(dec *xml.Decoder) (string, error) {
	var out []byte
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("mxml: read field text: %w", err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			out = append(out, t...)
		case xml.EndElement:
			return string(out), nil
		case xml.StartElement:
			return "", fmt.Errorf("mxml: nested element <%s> in field", t.Name.Local)
		}
	}
}
