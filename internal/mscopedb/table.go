// Package mscopedb implements mScopeDB (paper Section III-C): a dynamic
// data warehouse whose tables are created on the fly by the import
// pipeline. Four static metadata tables record experiment configuration
// and data-loading provenance; dynamic tables hold the monitoring data.
//
// Storage is columnar and typed (int64, float64, microsecond-epoch time,
// string) — the shape the bottom-up schema inference of the XMLtoCSV
// converter produces — and a small scan/filter/window-aggregate engine
// serves the analysis layer.
package mscopedb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// Type is a column's storage type.
type Type int

// Column types, narrowest first (the inference lattice's numeric arm).
const (
	TInt Type = iota + 1
	TFloat
	TTime
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TTime:
		return "time"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType inverts Type.String for schema sidecar files.
func ParseType(s string) (Type, error) {
	switch s {
	case "int":
		return TInt, nil
	case "float":
		return TFloat, nil
	case "time":
		return TTime, nil
	case "string":
		return TString, nil
	default:
		return 0, fmt.Errorf("mscopedb: unknown type %q", s)
	}
}

// Column describes one table column.
type Column struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
}

// colData holds one column's values; exactly one slice is used, selected
// by the column type. Times are microsecond epochs. The unexported intern
// state is rebuilt lazily on a reopened table.
type colData struct {
	Ints   []int64
	Floats []float64
	Times  []int64
	Strs   []string

	// intern deduplicates low-cardinality string columns (device names,
	// HTTP methods, status codes): repeated values share one backing
	// string instead of each pinning a slice of its source log line.
	// Past internCap distinct values the column is treated as
	// high-cardinality and interning shuts off for good.
	intern    map[string]string
	internOff bool
}

// internCap bounds the per-column intern map; a column that exceeds it is
// high-cardinality (URLs, free text) and not worth deduplicating.
const internCap = 256

// Table is one warehouse table.
type Table struct {
	name   string
	cols   []Column
	colIdx map[string]int
	data   []colData
	rows   int

	// rowBuf is the reused typed row of the one-row appends.
	rowBuf []Value

	// seal, when non-nil, makes the table spill-backed: rows [0, seal.rows)
	// live in immutable on-disk segments and data holds only the in-memory
	// tail. Row numbers stay global; the accessors translate.
	seal *sealedPart

	// tailImg is the segment image of the rows past the table's last full
	// segment, as DB.Encode or the last checkpoint encoded it; tailNew says
	// no commit has written it yet. segImgs are the images DB.Encode made of
	// the full segments before those rows, encRows rows each, for Install to
	// write. Whatever changes the rows or the schema drops them all
	// (changed), so a commit re-encodes only the tails that moved since the
	// commit before.
	tailImg []byte
	tailNew bool
	segImgs []segImg
	encRows int
}

// changed drops the images encoded from the table's rows.
func (t *Table) changed() {
	t.tailImg, t.tailNew, t.segImgs, t.encRows = nil, false, nil, 0
}

// NewTable builds an empty table; column names must be unique and
// non-empty.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("mscopedb: table with empty name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("mscopedb: table %q with no columns", name)
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("mscopedb: table %q column %d has empty name", name, i)
		}
		if c.Type < TInt || c.Type > TString {
			return nil, fmt.Errorf("mscopedb: table %q column %q has invalid type", name, c.Name)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("mscopedb: table %q duplicate column %q", name, c.Name)
		}
		idx[c.Name] = i
	}
	colsCopy := make([]Column, len(cols))
	copy(colsCopy, cols)
	return &Table{
		name:   name,
		cols:   colsCopy,
		colIdx: idx,
		data:   make([]colData, len(cols)),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Columns returns a copy of the schema.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.cols))
	copy(out, t.cols)
	return out
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// Grow preallocates column storage for n additional rows, so a bulk load
// with a known row count (the direct ingest path) appends without any
// intermediate slice doublings.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	for i := range t.data {
		d := &t.data[i]
		switch t.cols[i].Type {
		case TInt:
			d.Ints = growSlice(d.Ints, n)
		case TFloat:
			d.Floats = growSlice(d.Floats, n)
		case TTime:
			d.Times = growSlice(d.Times, n)
		case TString:
			d.Strs = growSlice(d.Strs, n)
		}
	}
}

func growSlice[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]E, len(s), len(s)+n)
	copy(ns, s)
	return ns
}

// Value is one typed cell on its way into a table: the narrowest type that
// stores its text, and the text read under that type. The zero Type is the
// empty cell, which loads as the zero value of whatever column receives it.
type Value struct {
	Type Type
	// Int is the TInt value, or the TTime microsecond epoch.
	Int int64
	// Float is the TFloat value; a TInt cell carries its text read as a
	// float ("-0" is the int 0 but the float -0.0), which is what a float
	// column stores for it.
	Float float64
	// Str is the cell's text, which is what a string column stores.
	Str string
}

// fits reports whether a column of type col stores the cell without a
// schema change.
func (v *Value) fits(col Type) bool {
	return v.Type == 0 || v.Type == col || col == TString || (col == TFloat && v.Type == TInt)
}

// AppendRows is the append path: cells holds whole rows in schema order,
// one after another, and every cell must already fit its column (the
// caller widens first). Nothing is appended when a cell does not. Segment
// boundaries of a spill-backed table fall every SealRows rows regardless of
// how the rows were grouped into calls.
func (t *Table) AppendRows(cells []Value) error {
	nc := len(t.cols)
	if len(cells)%nc != 0 {
		return fmt.Errorf("mscopedb: %s: %d cells do not make rows of %d columns", t.name, len(cells), nc)
	}
	for row := 0; row < len(cells); row += nc {
		for ci, c := range t.cols {
			if v := &cells[row+ci]; !v.fits(c.Type) {
				return fmt.Errorf("mscopedb: %s.%s: %v cell %q does not fit a %v column",
					t.name, c.Name, v.Type, v.Str, c.Type)
			}
		}
	}
	t.changed()
	for ci := range t.cols {
		d := &t.data[ci]
		switch t.cols[ci].Type {
		case TInt:
			for i := ci; i < len(cells); i += nc {
				d.Ints = append(d.Ints, cells[i].Int)
			}
		case TFloat:
			for i := ci; i < len(cells); i += nc {
				d.Floats = append(d.Floats, cells[i].Float)
			}
		case TTime:
			for i := ci; i < len(cells); i += nc {
				d.Times = append(d.Times, cells[i].Int)
			}
		case TString:
			for i := ci; i < len(cells); i += nc {
				d.Strs = append(d.Strs, d.internStr(cells[i].Str))
			}
		}
	}
	t.rows += len(cells) / nc
	return t.spillFull()
}

// ColumnData is one column's cells for AppendColumns: Ints for an int
// column and for a time column (microsecond epochs), Floats for a float
// column, and for a string column the texts end to end in Arena, text i
// being Arena[Offsets[i]:Offsets[i+1]]. A column given no cells holds empty
// ones, the zero value of its type.
type ColumnData struct {
	Ints    []int64
	Floats  []float64
	Arena   string
	Offsets []uint32
}

// AppendColumns appends rows rows given column by column, cols[i] being
// column i's cells. String cells are interned as AppendRows interns them,
// straight from the arena. A table with no rows adopts the Ints and Floats
// it is given instead of copying them: the caller gives them up. Nothing is
// appended when a column's cells are not rows cells of its type.
func (t *Table) AppendColumns(rows int, cols []ColumnData) error {
	if len(cols) != len(t.cols) {
		return fmt.Errorf("mscopedb: %s: %d columns of data for %d columns", t.name, len(cols), len(t.cols))
	}
	for i, c := range t.cols {
		d := &cols[i]
		texts := max(len(d.Offsets)-1, 0)
		n := texts
		switch c.Type {
		case TInt, TTime:
			n = len(d.Ints)
		case TFloat:
			n = len(d.Floats)
		}
		if (n != rows && n != 0) || len(d.Ints)+len(d.Floats)+texts != n {
			return fmt.Errorf("mscopedb: %s.%s: column data is %d ints, %d floats and %d texts, want %d %v cells",
				t.name, c.Name, len(d.Ints), len(d.Floats), texts, rows, c.Type)
		}
		for k := 0; k < texts; k++ {
			if d.Offsets[k] > d.Offsets[k+1] || int(d.Offsets[k+1]) > len(d.Arena) {
				return fmt.Errorf("mscopedb: %s.%s: text %d at [%d:%d] of a %d-byte arena",
					t.name, c.Name, k, d.Offsets[k], d.Offsets[k+1], len(d.Arena))
			}
		}
	}
	adopt := t.rows == 0
	t.changed()
	for i := range t.cols {
		d, c := &t.data[i], &cols[i]
		switch t.cols[i].Type {
		case TInt:
			d.Ints = appendCells(d.Ints, c.Ints, rows, adopt)
		case TFloat:
			d.Floats = appendCells(d.Floats, c.Floats, rows, adopt)
		case TTime:
			d.Times = appendCells(d.Times, c.Ints, rows, adopt)
		case TString:
			if len(c.Offsets) == 0 {
				d.Strs = append(d.Strs, make([]string, rows)...)
				continue
			}
			d.Strs = slices.Grow(d.Strs, rows)
			for k := 0; k < rows; k++ {
				d.Strs = append(d.Strs, d.internStr(c.Arena[c.Offsets[k]:c.Offsets[k+1]]))
			}
		}
	}
	t.rows += rows
	return t.spillFull()
}

// appendCells appends src, or n empty cells when src is empty, to dst; an
// empty dst may adopt src.
func appendCells[E int64 | float64](dst, src []E, n int, adopt bool) []E {
	switch {
	case len(src) == 0:
		return append(dst, make([]E, n)...)
	case adopt && len(dst) == 0:
		return src
	}
	return append(dst, src...)
}

// Append adds one row; values must match the schema positionally with Go
// types int64, float64, time.Time and string.
func (t *Table) Append(values ...any) error {
	if len(values) != len(t.cols) {
		return fmt.Errorf("mscopedb: %s: %d values for %d columns", t.name, len(values), len(t.cols))
	}
	row := t.rowBuf[:0]
	for i, v := range values {
		cell := Value{Type: t.cols[i].Type}
		ok := false
		switch cell.Type {
		case TInt:
			cell.Int, ok = v.(int64)
		case TFloat:
			cell.Float, ok = v.(float64)
		case TTime:
			var ts time.Time
			if ts, ok = v.(time.Time); ok {
				cell.Int = ts.UnixMicro()
			}
		case TString:
			cell.Str, ok = v.(string)
		}
		if !ok {
			return fmt.Errorf("mscopedb: %s.%s: %T is not a %v value", t.name, t.cols[i].Name, v, cell.Type)
		}
		row = append(row, cell)
	}
	t.rowBuf = row
	return t.AppendRows(row)
}

// AppendStrings parses one CSV-shaped row against the schema (the import
// path) and appends it. Empty cells load as the column's zero value except
// strings, which load as the empty string.
func (t *Table) AppendStrings(raw []string) error {
	if len(raw) != len(t.cols) {
		return fmt.Errorf("mscopedb: %s: %d cells for %d columns", t.name, len(raw), len(t.cols))
	}
	row := t.rowBuf[:0]
	for i, s := range raw {
		v := Value{Str: s}
		if s != "" {
			var err error
			switch v.Type = t.cols[i].Type; v.Type {
			case TInt:
				if v.Int, err = strconv.ParseInt(s, 10, 64); err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse int %q: %w", t.name, t.cols[i].Name, s, err)
				}
			case TFloat:
				if v.Float, err = strconv.ParseFloat(s, 64); err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse float %q: %w", t.name, t.cols[i].Name, s, err)
				}
			case TTime:
				ts, err := time.Parse(mxml.TimeLayout, s)
				if err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse time %q: %w", t.name, t.cols[i].Name, s, err)
				}
				v.Int = ts.UnixMicro()
			}
		}
		row = append(row, v)
	}
	t.rowBuf = row
	return t.AppendRows(row)
}

// internStr returns a shared copy of s for low-cardinality columns. The
// clone matters beyond deduplication: stored cells stop referencing their
// source line (the direct ingest path appends substrings of whole log
// lines), so repeated values pin one small string instead of many lines.
func (d *colData) internStr(s string) string {
	if s == "" || d.internOff {
		return s
	}
	if v, ok := d.intern[s]; ok {
		return v
	}
	if len(d.intern) >= internCap {
		d.internOff = true
		d.intern = nil
		return s
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	c := strings.Clone(s)
	d.intern[c] = c
	return c
}

// Widen converts a column to a wider storage type in place, rewriting the
// stored cells: int → float keeps the numeric values; any type → string
// re-renders each cell. The streaming incremental ingest uses it when a
// later record contradicts the schema inferred from the first records
// (e.g. a downstream timestamp that is numeric for most requests but "-"
// for static ones) — exactly the widening the batch converter's bottom-up
// inference would have produced had it seen the whole file.
func (t *Table) Widen(col string, to Type) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("mscopedb: %s: no column %q", t.name, col)
	}
	from := t.cols[ci].Type
	if from == to {
		return nil
	}
	// Sealed segments are immutable and carry the old schema; pull them
	// back into the tail before rewriting in place. Widening happens while
	// a table's schema is still settling — early, when little has spilled.
	if err := t.unspill(); err != nil {
		return err
	}
	t.changed()
	d := &t.data[ci]
	switch {
	case from == TInt && to == TFloat:
		d.Floats = make([]float64, len(d.Ints))
		for i, v := range d.Ints {
			d.Floats[i] = float64(v)
		}
		d.Ints = nil
	case to == TString:
		d.Strs = make([]string, 0, t.rows)
		switch from {
		case TInt:
			for _, v := range d.Ints {
				d.Strs = append(d.Strs, strconv.FormatInt(v, 10))
			}
			d.Ints = nil
		case TFloat:
			for _, v := range d.Floats {
				d.Strs = append(d.Strs, strconv.FormatFloat(v, 'g', -1, 64))
			}
			d.Floats = nil
		case TTime:
			for _, v := range d.Times {
				d.Strs = append(d.Strs, time.UnixMicro(v).UTC().Format(mxml.TimeLayout))
			}
			d.Times = nil
		}
	default:
		return fmt.Errorf("mscopedb: %s.%s: cannot widen %v to %v", t.name, col, from, to)
	}
	t.alterSchema(func() { t.cols[ci].Type = to })
	return nil
}

// AddColumn appends a new column, backfilling existing rows with the
// column's zero value. The streaming ingest uses it when a later record
// introduces a field the first records lacked (an optional derived field).
func (t *Table) AddColumn(c Column) error {
	if c.Name == "" {
		return fmt.Errorf("mscopedb: %s: column with empty name", t.name)
	}
	if c.Type < TInt || c.Type > TString {
		return fmt.Errorf("mscopedb: %s: column %q has invalid type", t.name, c.Name)
	}
	if _, dup := t.colIdx[c.Name]; dup {
		return fmt.Errorf("mscopedb: %s: duplicate column %q", t.name, c.Name)
	}
	// Same reasoning as Widen: segments pin the schema they were encoded
	// under, so widen the physical layout in memory.
	if err := t.unspill(); err != nil {
		return err
	}
	t.changed()
	t.colIdx[c.Name] = len(t.cols)
	t.alterSchema(func() { t.cols = append(t.cols, c) })
	t.data = append(t.data, zeroColumn(c.Type, t.rows))
	return nil
}

// alterSchema runs fn, which changes t.cols, under the seal lock, where
// the compactor snapshots the columns with the segment list.
func (t *Table) alterSchema(fn func()) {
	if sp := t.seal; sp != nil {
		sp.mu.Lock()
		defer sp.mu.Unlock()
	}
	fn()
}

// zeroColumn is n empty cells of one type.
func zeroColumn(typ Type, n int) colData {
	var d colData
	switch typ {
	case TInt:
		d.Ints = make([]int64, n)
	case TFloat:
		d.Floats = make([]float64, n)
	case TTime:
		d.Times = make([]int64, n)
	case TString:
		d.Strs = make([]string, n)
	}
	return d
}

// Retype gives a string column that holds only empty cells the type of the
// first value it is about to receive. The streaming ingest creates a column
// whose first cell is empty as a string column, because it cannot know
// better yet; an empty cell is every type's zero value, so the column is
// rebuilt as zeros — what whole-file inference, which skips empty cells,
// would have loaded.
func (t *Table) Retype(col string, to Type) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("mscopedb: %s: no column %q", t.name, col)
	}
	if t.cols[ci].Type != TString || to < TInt || to >= TString {
		return fmt.Errorf("mscopedb: %s.%s: cannot retype %v to %v", t.name, col, t.cols[ci].Type, to)
	}
	if err := t.unspill(); err != nil {
		return err
	}
	for _, s := range t.data[ci].Strs {
		if s != "" {
			return fmt.Errorf("mscopedb: %s.%s: retype to %v: column holds %q", t.name, col, to, s)
		}
	}
	t.changed()
	t.data[ci] = zeroColumn(to, t.rows)
	t.alterSchema(func() { t.cols[ci].Type = to })
	return nil
}

// Int returns an int cell.
func (t *Table) Int(col, row int) int64 {
	if t.seal != nil {
		return t.seal.intAt(t, col, row)
	}
	return t.data[col].Ints[row]
}

// Float returns a float cell.
func (t *Table) Float(col, row int) float64 {
	if t.seal != nil {
		return t.seal.floatAt(t, col, row)
	}
	return t.data[col].Floats[row]
}

// TimeMicros returns a time cell as a microsecond epoch.
func (t *Table) TimeMicros(col, row int) int64 {
	if t.seal != nil {
		return t.seal.timeAt(t, col, row)
	}
	return t.data[col].Times[row]
}

// Str returns a string cell.
func (t *Table) Str(col, row int) string {
	if t.seal != nil {
		return t.seal.strAt(t, col, row)
	}
	return t.data[col].Strs[row]
}

// Value returns a cell as any (int64, float64, time.Time or string).
func (t *Table) Value(col, row int) any {
	switch t.cols[col].Type {
	case TInt:
		return t.Int(col, row)
	case TFloat:
		return t.Float(col, row)
	case TTime:
		return time.UnixMicro(t.TimeMicros(col, row)).UTC()
	case TString:
		return t.Str(col, row)
	default:
		panic(fmt.Sprintf("mscopedb: invalid column type %v", t.cols[col].Type))
	}
}

// SizeBytes estimates the table's in-memory data footprint: 8 bytes per
// numeric/time cell, string header plus content per string cell. The
// schema-typing ablation compares typed against all-string schemas with it.
// On a spill-backed table this counts only the in-memory tail — that is
// the footprint, the sealed rows live on disk.
func (t *Table) SizeBytes() int64 {
	var total int64
	for i := range t.data {
		cd := &t.data[i]
		total += int64(len(cd.Ints)+len(cd.Floats)+len(cd.Times)) * 8
		for _, s := range cd.Strs {
			total += int64(len(s)) + 16
		}
	}
	return total
}
