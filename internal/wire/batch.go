package wire

import (
	"fmt"

	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
)

// Segment is a run of consecutive records sharing one field shape (same
// ordered names and hints). Shipping the shape once per run instead of per
// record is what makes the batch a *column* batch: within a segment the
// values are laid out column-major, so a 500-row collectl run carries each
// field name exactly once.
type Segment struct {
	Fields []mxml.Field // Name and Hint set; Value empty
	Rows   int
	// Values holds Rows values per field. Segments built by
	// AppendEntries accumulate row-major (append is O(1) per field);
	// decoded segments are column-major (Values[f*Rows+r]), flagged by
	// encoded. The wire layout is always column-major.
	Values []string

	encoded bool
}

// maxBatchFields bounds the per-segment field count a decoder will accept;
// the widest real format (collectl) has a few dozen columns.
const maxBatchFields = 4096

// AppendEntries folds records onto the batch, extending the last segment
// while the shape holds and starting a new one when it changes. The
// entries' strings are referenced, not copied.
func (b *Batch) AppendEntries(entries []mxml.Entry) {
	for i := range entries {
		b.appendEntry(&entries[i])
	}
}

func (b *Batch) appendEntry(e *mxml.Entry) {
	var seg *Segment
	if n := len(b.Segments); n > 0 && sameShape(&b.Segments[n-1], e) {
		seg = &b.Segments[n-1]
	} else {
		fields := make([]mxml.Field, len(e.Fields))
		for i, f := range e.Fields {
			fields[i] = mxml.Field{Name: f.Name, Hint: f.Hint}
		}
		b.Segments = append(b.Segments, Segment{Fields: fields})
		seg = &b.Segments[len(b.Segments)-1]
	}
	// Row-major append into the column-major layout: a freshly extended
	// segment re-interleaves on encode, so building stays O(1) per field.
	for _, f := range e.Fields {
		seg.Values = append(seg.Values, f.Value)
	}
	seg.Rows++
}

func sameShape(s *Segment, e *mxml.Entry) bool {
	if len(s.Fields) != len(e.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i].Name != e.Fields[i].Name || s.Fields[i].Hint != e.Fields[i].Hint {
			return false
		}
	}
	return true
}

// AppendRecord folds one parsed record onto the batch as AppendEntries
// folds the entry the adapter makes of it: the same segments, the same
// frame.
func (b *Batch) AppendRecord(r *parsers.Record) error {
	e := b.entries.Entry(r)
	b.appendEntry(&e)
	e.Release() // the segment keeps the values, not the field storage
	return nil
}

// EachRecord hands fn the batch's records in order, as text cells, and
// stops at fn's first error. The record and the bytes under its cells are
// reused from row to row: valid only until fn returns.
func (b *Batch) EachRecord(fn parsers.Sink) error {
	r := parsers.Record{Cells: make([]parsers.Cell, 0, 32)}
	buf := make([]byte, 0, 1024)
	for si := range b.Segments {
		seg := &b.Segments[si]
		nf := len(seg.Fields)
		for row := 0; row < seg.Rows; row++ {
			buf, r.Cells = buf[:0], r.Cells[:0]
			for f := 0; f < nf; f++ {
				buf = append(buf, seg.value(f, row)...)
				r.Cells = append(r.Cells, parsers.Cell{Name: seg.Fields[f].Name, Hint: seg.Fields[f].Hint})
			}
			start := 0
			for f := range r.Cells {
				end := start + len(seg.value(f, row))
				r.Cells[f].Text = buf[start:end:end]
				start = end
			}
			if err := fn(&r); err != nil {
				return err
			}
		}
	}
	return nil
}

// value returns field f of record r in either layout.
func (s *Segment) value(f, r int) string {
	if s.encoded {
		return s.Values[f*s.Rows+r]
	}
	return s.Values[r*len(s.Fields)+f]
}

// EncodeBatch serializes the batch header and its segments.
func EncodeBatch(b *Batch) []byte {
	var e enc
	e.u32(b.SourceID)
	e.uv(b.Seq)
	e.iv(b.Offset)
	e.iv(b.Quarantined)
	e.uv(uint64(len(b.Segments)))
	for si := range b.Segments {
		seg := &b.Segments[si]
		e.uv(uint64(len(seg.Fields)))
		for i := range seg.Fields {
			e.str(seg.Fields[i].Name)
			e.str(seg.Fields[i].Hint)
		}
		e.uv(uint64(seg.Rows))
		for f := 0; f < len(seg.Fields); f++ {
			for r := 0; r < seg.Rows; r++ {
				e.str(seg.value(f, r))
			}
		}
	}
	return e.b
}

// DecodeBatch parses a batch payload, validating every count against the
// bytes actually present so corrupt input fails instead of allocating.
func DecodeBatch(p []byte) (Batch, error) {
	d := dec{b: p}
	b := Batch{
		SourceID:    d.u32("batch source id"),
		Seq:         d.uv("batch seq"),
		Offset:      d.iv("batch offset"),
		Quarantined: d.iv("batch quarantined"),
	}
	nseg := d.uv("batch segment count")
	if d.err != nil {
		return b, d.err
	}
	if nseg > uint64(len(d.b)) {
		return b, fmt.Errorf("wire: batch claims %d segments in %d bytes", nseg, len(d.b))
	}
	for s := uint64(0); s < nseg; s++ {
		nf := d.uv("segment field count")
		if d.err != nil {
			return b, d.err
		}
		if nf > maxBatchFields || nf > uint64(len(d.b)) {
			return b, fmt.Errorf("wire: segment field count %d invalid", nf)
		}
		seg := Segment{Fields: make([]mxml.Field, nf), encoded: true}
		for i := range seg.Fields {
			seg.Fields[i].Name = d.str("field name")
			seg.Fields[i].Hint = d.str("field hint")
		}
		rows := d.uv("segment row count")
		if d.err != nil {
			return b, d.err
		}
		// Every value costs at least one length byte, so rows*fields can
		// never exceed the remaining payload in a well-formed batch.
		if rows > uint64(len(d.b)) || rows*nf > uint64(len(d.b)) {
			return b, fmt.Errorf("wire: segment claims %d rows x %d fields in %d bytes", rows, nf, len(d.b))
		}
		seg.Rows = int(rows)
		// Start small: a hostile length pair passing the byte-budget check
		// above still shouldn't pre-allocate megabytes of headers.
		capHint := rows * nf
		if capHint > 4096 {
			capHint = 4096
		}
		seg.Values = make([]string, 0, capHint)
		for i := uint64(0); i < rows*nf; i++ {
			seg.Values = append(seg.Values, d.str("segment value"))
		}
		if d.err != nil {
			return b, d.err
		}
		b.Segments = append(b.Segments, seg)
	}
	return b, d.done("batch")
}
