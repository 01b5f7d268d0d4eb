package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
)

// Segment is a run of consecutive records sharing one field shape (same
// ordered names and hints). Shipping the shape once per run instead of per
// record is what makes the batch a *column* batch: on the wire a segment's
// values are laid out column-major, so a 500-row collectl run carries each
// field name exactly once.
//
// In memory a cell is a span of data: the arena of a batch built here, the
// payload of a decoded one. spans holds a start and an end per cell, record
// by record, so no cell is ever a string of its own. A frame is at most
// MaxFrame bytes, so uint32 offsets reach any cell a frame can carry.
type Segment struct {
	Fields []mxml.Field // Name and Hint set; Value empty
	Rows   int

	data  []byte
	spans []uint32
}

// cell is field f of record r.
func (s *Segment) cell(f, r int) []byte {
	i := 2 * (r*len(s.Fields) + f)
	start, end := s.spans[i], s.spans[i+1]
	return s.data[start:end:end]
}

// maxBatchFields bounds the per-segment field count a decoder will accept;
// the widest real format (collectl) has a few dozen columns.
const maxBatchFields = 4096

// AppendEntries folds records onto the batch, extending the last segment
// while the shape holds and starting a new one when it changes. The
// entries' values are copied into the batch's arena.
func (b *Batch) AppendEntries(entries []mxml.Entry) {
	for i := range entries {
		e := &entries[i]
		seg := b.segment(len(e.Fields), func(k int) (string, string) { return e.Fields[k].Name, e.Fields[k].Hint })
		for _, f := range e.Fields {
			start := len(b.arena)
			b.arena = append(b.arena, f.Value...)
			b.spans = append(b.spans, uint32(start), uint32(len(b.arena)))
		}
		b.row(seg)
	}
}

// AppendRecord folds one parsed record onto the batch: each cell's text,
// rendered for a computed cell, goes straight into the arena. It makes the
// frame AppendEntries makes of the record's entry.
func (b *Batch) AppendRecord(r *parsers.Record) error {
	seg := b.segment(len(r.Cells), func(k int) (string, string) { return r.Cells[k].Name, r.Cells[k].Hint })
	for i := range r.Cells {
		start := len(b.arena)
		b.arena = r.Cells[i].AppendText(b.arena)
		b.spans = append(b.spans, uint32(start), uint32(len(b.arena)))
	}
	b.row(seg)
	return nil
}

// segment returns the segment a record of n fields extends: the last one
// while the shape holds, else a new one, on the field storage a Reset kept.
func (b *Batch) segment(n int, field func(int) (name, hint string)) *Segment {
	k := len(b.Segments)
	same := k > 0 && len(b.Segments[k-1].Fields) == n
	for i := 0; same && i < n; i++ {
		name, hint := field(i)
		same = b.Segments[k-1].Fields[i] == mxml.Field{Name: name, Hint: hint}
	}
	if same {
		return &b.Segments[k-1]
	}
	var fields []mxml.Field
	if k < cap(b.Segments) {
		fields = b.Segments[:k+1][k].Fields[:0]
	}
	for i := 0; i < n; i++ {
		name, hint := field(i)
		fields = append(fields, mxml.Field{Name: name, Hint: hint})
	}
	b.Segments = append(b.Segments, Segment{Fields: fields})
	return &b.Segments[k]
}

// row counts the record whose cells were just appended as seg's last. The
// segment's rows are the last spans; the arena may have moved.
func (b *Batch) row(seg *Segment) {
	seg.Rows++
	seg.data, seg.spans = b.arena, b.spans[len(b.spans)-2*len(seg.Fields)*seg.Rows:]
}

// Reset empties the batch for the next frame and keeps its storage.
func (b *Batch) Reset() {
	*b = Batch{Segments: b.Segments[:0], arena: b.arena[:0], spans: b.spans[:0]}
}

// EachRecord hands fn the batch's records in order, as text cells, and
// stops at fn's first error. The record is reused from row to row and its
// cells' Text references the batch's buffer: valid only until fn returns.
func (b *Batch) EachRecord(fn parsers.Sink) error {
	hold := new(struct { // one allocation: the record and room for its cells
		r     parsers.Record
		cells [32]parsers.Cell
	})
	r := &hold.r
	r.Cells = hold.cells[:0]
	for si := range b.Segments {
		seg := &b.Segments[si]
		for row := 0; row < seg.Rows; row++ {
			r.Cells = r.Cells[:0]
			for f := range seg.Fields {
				r.Cells = append(r.Cells, parsers.Cell{Name: seg.Fields[f].Name, Hint: seg.Fields[f].Hint, Text: seg.cell(f, row)})
			}
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// EncodeBatch serializes the batch header and its segments into a buffer
// sized once.
func EncodeBatch(b *Batch) []byte {
	uvlen := func(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }
	n := 4 + 4*binary.MaxVarintLen64
	for si := range b.Segments {
		seg := &b.Segments[si]
		n += uvlen(len(seg.Fields)) + uvlen(seg.Rows)
		for _, f := range seg.Fields {
			n += uvlen(len(f.Name)) + len(f.Name) + uvlen(len(f.Hint)) + len(f.Hint)
		}
		for i := 0; i < len(seg.spans); i += 2 {
			l := int(seg.spans[i+1] - seg.spans[i])
			n += uvlen(l) + l
		}
	}
	e := enc{b: make([]byte, 0, n)}
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
		for f := range seg.Fields {
			for r := 0; r < seg.Rows; r++ {
				e.bytes(seg.cell(f, r))
			}
		}
	}
	return e.b
}

// DecodeBatch parses a batch payload, validating every count against the
// bytes actually present so corrupt input fails instead of allocating.
// The batch references p: its cells are spans of it, so p must not change
// while the batch is in use.
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
	b.Segments = make([]Segment, 0, min(nseg, 64))
	for s := uint64(0); s < nseg; s++ {
		nf := d.uv("segment field count")
		if d.err != nil {
			return b, d.err
		}
		if nf > maxBatchFields || nf > uint64(len(d.b)) {
			return b, fmt.Errorf("wire: segment field count %d invalid", nf)
		}
		seg := Segment{Fields: make([]mxml.Field, nf), data: p}
		for i := range seg.Fields {
			seg.Fields[i].Name = intern(d.bytes("field name"))
			seg.Fields[i].Hint = intern(d.bytes("field hint"))
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
		// Walk the values before sizing the spans: a hostile length pair
		// passing the byte budget above must not allocate for bytes that
		// are not there.
		ahead := d
		for i := uint64(0); i < rows*nf; i++ {
			ahead.bytes("segment value")
		}
		if ahead.err != nil {
			return b, ahead.err
		}
		seg.Rows, seg.spans = int(rows), make([]uint32, 2*rows*nf)
		for f := 0; f < int(nf); f++ {
			for r := 0; r < seg.Rows; r++ {
				v := d.bytes("segment value")
				i, end := 2*(r*int(nf)+f), len(p)-len(d.b)
				seg.spans[i], seg.spans[i+1] = uint32(end-len(v)), uint32(end)
			}
		}
		b.Segments = append(b.Segments, seg)
	}
	return b, d.done("batch")
}

// names interns decoded field names and hints: every frame of a source
// repeats the same few, so each is made a string once, not per segment.
// Only short ones are kept, and only so many, so a peer sending arbitrary
// names cannot grow it without bound.
var names = struct {
	sync.Mutex
	m map[string]string
}{m: make(map[string]string)}

func intern(b []byte) string {
	names.Lock()
	defer names.Unlock()
	s, ok := names.m[string(b)]
	if !ok {
		s = string(b)
		if len(s) <= 64 && len(names.m) < maxBatchFields {
			names.m[s] = s
		}
	}
	return s
}
