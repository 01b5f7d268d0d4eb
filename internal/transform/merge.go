package transform

import (
	"errors"
	"fmt"
	"slices"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// Target is a warehouse table that blocks of records merge into, the live
// loader's, one a source. The table is created from the first block, or
// found in DB on resume; a block's new column is added, a column that has
// held only empty cells takes the type of its first value, and a column a
// block is wider in widens in place — converging on the schema whole-file
// inference gives. A block keeps every cell's text as batch ingest does;
// only rows merged before a widening are re-rendered by it.
type Target struct {
	DB    *mscopedb.DB
	Table string

	tbl *mscopedb.Table
	// cols caches the table's schema; unset marks the columns that have
	// held only empty cells, created as strings for want of anything better
	// and still free to take the type of their first value, as whole-file
	// inference, which ignores empty cells, types them.
	cols  []mscopedb.Column
	unset []bool
	pos   []int // the table column of each block column
	data  []mscopedb.ColumnData
}

// Merge appends rows [lo, hi) of the block to the table, evolving the
// schema first. A block column narrower than the table's widens, from the
// text it kept; the block stays valid for another range.
func (t *Target) Merge(b *Builder, lo, hi int) error {
	switch {
	case lo >= hi:
		return nil
	case b.err != nil:
		return b.err
	case b.emptyName:
		return fmt.Errorf("transform: %s: field without name", t.Table)
	}
	if err := t.open(b); err != nil {
		return err
	}
	t.pos = t.pos[:0]
	for i := range b.cols {
		c := &b.cols[i]
		ci := t.tbl.ColIndex(c.name)
		t.pos = append(t.pos, ci)
		if !c.seen {
			continue
		}
		b.fill(c)
		var err error
		changed := true
		switch {
		case ci < 0:
			t.pos[i] = len(t.cols)
			err = t.tbl.AddColumn(mscopedb.Column{Name: c.name, Type: settled(c.typ)})
			t.unset = append(t.unset, c.typ == 0)
		case c.typ != 0 && t.unset[ci]:
			t.unset[ci] = false
			if changed = c.typ != mscopedb.TString; changed {
				err = t.tbl.Retype(c.name, c.typ)
			}
		case c.typ != 0 && xmlcsv.Widen(t.cols[ci].Type, c.typ) != t.cols[ci].Type:
			err = t.tbl.Widen(c.name, xmlcsv.Widen(t.cols[ci].Type, c.typ))
		default:
			changed = false
		}
		if err != nil {
			return err
		}
		if changed {
			t.cols = t.tbl.Columns()
		}
		if typ := t.cols[t.pos[i]].Type; c.typ != 0 && c.typ != typ {
			b.retype(c, typ)
		}
	}
	t.data = append(t.data[:0], make([]mscopedb.ColumnData, len(t.cols))...)
	for i := range b.cols {
		if c := &b.cols[i]; c.seen && c.typ != 0 {
			d := c.data(lo, hi)
			if t.tbl.Rows() == 0 { // the table would keep the block's storage
				d.Ints, d.Floats = slices.Clone(d.Ints), slices.Clone(d.Floats)
			}
			t.data[t.pos[i]] = d
		}
	}
	return t.tbl.AppendColumns(hi-lo, t.data)
}

// open finds the table, or creates it with the block's columns.
func (t *Target) open(b *Builder) error {
	if t.tbl != nil {
		return nil
	}
	if t.DB.HasTable(t.Table) {
		tbl, err := t.DB.Table(t.Table) // resume: append to the existing table
		if err != nil {
			return err
		}
		t.tbl, t.cols = tbl, tbl.Columns()
		t.unset = make([]bool, len(t.cols))
		for ci, c := range t.cols {
			t.unset[ci] = c.Type == mscopedb.TString && allEmpty(tbl, c.Name)
		}
		return nil
	}
	var cols []mscopedb.Column
	for i := range b.cols {
		if c := &b.cols[i]; c.seen {
			cols = append(cols, mscopedb.Column{Name: c.name, Type: settled(c.typ)})
			t.unset = append(t.unset, c.typ == 0)
		}
	}
	if len(cols) == 0 {
		return fmt.Errorf("transform: %s: records with no fields", t.Table)
	}
	tbl, err := t.DB.Create(t.Table, cols)
	if err != nil {
		return err
	}
	t.tbl, t.cols = tbl, tbl.Columns()
	return nil
}

// settled is the type a column is created with: a column that held only
// empty cells loads as strings.
func settled(typ mscopedb.Type) mscopedb.Type {
	if typ == 0 {
		return mscopedb.TString
	}
	return typ
}

// allEmpty reports whether a string column holds only empty cells; it stops
// at the first that is not, which in a column that ever had a value is
// almost always the first chunk's. A column that cannot be read counts as
// holding a value: it keeps its type, and the read error surfaces to
// whoever next queries the table.
func allEmpty(t *mscopedb.Table, col string) bool {
	return t.Scan([]string{col}, func(ch *mscopedb.Chunk) error {
		for _, s := range ch.Strs(0) {
			if s != "" {
				return errNotEmpty
			}
		}
		return nil
	}) == nil
}

var errNotEmpty = errors.New("transform: column holds a value")
