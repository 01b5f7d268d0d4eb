package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// Source states reported in Status.
const (
	StateActive   = "active"
	StateFailed   = "failed"   // strict parser or I/O error; table keeps its rows
	StateRejected = "rejected" // quarantine error budget breached
	StateDone     = "done"     // drained cleanly at shutdown
)

// Streamable reports whether the live pipeline tails a file: it must have
// a Parsing Declaration binding, and its format must carry per-record
// event times the watermark can track (the four event logs, the collectl
// CSVs — exactly the evidence the diagnosis consumes — and the selfobs
// span logs, which is what lets distributed agents ship their own
// telemetry to the collector as just another source).
func Streamable(plan *transform.Plan, name string) bool {
	b, ok := plan.Find(name)
	if !ok {
		return false
	}
	return b.TableSuffix == "event" || b.TableSuffix == "collectlcsv" ||
		b.TableSuffix == "selftrace"
}

// source is one log as the loader sees it, tailed here or on an agent's
// node: its target table, resume arithmetic and counters. The loader owns
// the appender; cross-goroutine fields are atomic or mutex-guarded.
type source struct {
	p       *Pipeline
	path    string
	name    string // base name
	binding transform.Binding
	table   string
	host    string

	// skipEntries > 0 means the parse restarts from byte zero (the format
	// needs its header) and this many already-consumed records are dropped
	// before processing resumes — the row-level half of idempotent resume.
	// Atomic because a remote source's reopen (on the connection goroutine)
	// re-arms it while the loader owns the decrements.
	skipEntries atomic.Int64
	// consumedBase is the consumed-record count carried over from prior
	// sessions when the reader byte-resumes mid-file (re-read-from-zero
	// resumes re-count naturally and leave it 0). consumed + consumedBase
	// is what the checkpoint ledger records.
	consumedBase atomic.Int64

	// off is the byte offset stamped on the last applied batch, offRows the
	// consumed-record total at the moment it was stored, rotations the
	// reader's truncation count then. off is what the ledger checkpoints;
	// with offRows it lets a reconnecting agent resume mid-file with the
	// re-shipped overlap skipped exactly.
	off       atomic.Int64
	offRows   atomic.Int64
	rotations atomic.Int64
	// quarBase is the quarantine total when the current reader took over
	// (a reconnected agent counts from zero again); batches carry the
	// reader's own running count.
	quarBase atomic.Int64
	// pending counts this source's wire batches sitting between a remote
	// feeder and the loader; a reconnect's reopen waits for it to drain
	// before touching the resume arithmetic.
	pending atomic.Int64

	app *appender // loader-owned

	rows        atomic.Int64
	quarantined atomic.Int64
	parseErrs   atomic.Int64 // unrecoverable parser failures (0 or 1)
	frontierUS  atomic.Int64
	// consumed counts every record the loader drained from this source
	// this session, including resume-skips; processed excludes the skips.
	// Under degraded fidelity processed > rows: consumed records may be
	// rolled up or shed instead of appended, which is exactly why the
	// ledger checkpoint records consumption, not table rows.
	consumed  atomic.Int64
	processed atomic.Int64

	mu    sync.Mutex
	state string
	err   error
}

func (s *source) setState(state string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Terminal states stick: a budget rejection is not overwritten by the
	// shutdown drain marking everything done.
	if s.state == StateFailed || s.state == StateRejected {
		return
	}
	s.state = state
	s.err = err
}

func (s *source) status() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.err
}

// fail marks the source terminally failed: the table keeps its rows, the
// watermark stops waiting.
func (s *source) fail(err error) {
	s.setState(StateFailed, err)
	s.p.wm.Finish(s.path)
}

// deliver is a tailed file's Sink: the batch crosses to the loader, which
// blocks while the record queue is full.
func (s *source) deliver(b Batch) bool {
	s.p.send(rec{src: s, Batch: b})
	if b.Err != nil {
		s.parseErrs.Add(1)
		s.fail(b.Err)
	}
	st, _ := s.status()
	return st == StateActive
}

// stamp applies what a batch says of its source once its records are
// counted: the reader's quarantine total, and the offset its records reach.
// The rows stamp must count exactly the records behind the offset, so an
// offset that does not advance is ignored — a batch cut short of a line
// boundary re-stamps the previous one, whose record count was captured when
// it first applied — unless the file was truncated and offsets restarted.
func (s *source) stamp(b Batch) {
	s.quarantined.Store(s.quarBase.Load() + b.Quarantined)
	if b.Offset > s.off.Load() || b.Rotations != s.rotations.Load() {
		s.offRows.Store(s.consumedBase.Load() + s.consumed.Load())
		s.off.Store(b.Offset)
		s.rotations.Store(b.Rotations)
	}
}

// typeFields types each field of an entry once, into vals[i] for
// e.Fields[i]. Everything the loader then wants from the record — its event
// time, the front tier's ua/ud, the rolled-up gauges, the cells appended —
// reads these values, never the text again.
func typeFields(e *mxml.Entry, vals []mscopedb.Value) []mscopedb.Value {
	vals = vals[:0]
	for _, f := range e.Fields {
		vals = append(vals, xmlcsv.TypeCell(f.Value, f.Hint))
	}
	return vals
}

// typedField returns the typed value of the first field with the name.
func typedField(e *mxml.Entry, vals []mscopedb.Value, name string) (v mscopedb.Value) {
	for i := range e.Fields {
		if e.Fields[i].Name == name {
			return vals[i]
		}
	}
	return v
}

// intField is a field that reads as an integer.
func intField(e *mxml.Entry, vals []mscopedb.Value, name string) (int64, bool) {
	v := typedField(e, vals, name)
	return v.Int, v.Type == mscopedb.TInt
}

// eventTimeUS extracts the record's event time: departure (ud) for event
// tables, sample timestamp (ts) for collectl CSVs. False means the record
// carries no usable clock — it still loads, but cannot advance the
// watermark.
func (s *source) eventTimeUS(e *mxml.Entry, vals []mscopedb.Value) (int64, bool) {
	if s.binding.TableSuffix == "event" {
		return intField(e, vals, "ud")
	}
	v := typedField(e, vals, "ts")
	return v.Int, v.Type == mscopedb.TTime
}

// appender maintains one warehouse table incrementally: the table is
// created from the first record's types, and later records that contradict
// the schema widen columns or add new ones in place — converging on the
// schema the batch converter's whole-file inference would have produced.
// Rows are staged typed and reach the table a batch at a time; a schema
// change first flushes the rows staged under the old schema.
type appender struct {
	db    *mscopedb.DB
	name  string
	table *mscopedb.Table

	// cols caches the table's schema, and unset marks the columns that have
	// held only empty cells: created as string columns for want of
	// anything better, and still free to take the type of their first value
	// — as whole-file inference, which ignores empty cells, types them.
	cols  []mscopedb.Column
	unset []bool

	cells  []mscopedb.Value // staged rows, in schema order, row after row
	staged int
	pos    []int // column of each field of the row being staged
}

func newAppender(db *mscopedb.DB, name string) *appender {
	a := &appender{db: db, name: name}
	if db.HasTable(name) {
		a.table, _ = db.Table(name) // resume: append to the existing table
		a.cols = a.table.Columns()
		a.unset = make([]bool, len(a.cols))
		for ci, c := range a.cols {
			a.unset[ci] = c.Type == mscopedb.TString && allEmpty(a.table, c.Name)
		}
	}
	return a
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

var errNotEmpty = errors.New("stream: column holds a value")

// columnFor is the column an empty table or a new field starts with.
func columnFor(name string, v mscopedb.Type) mscopedb.Column {
	if v == 0 {
		v = mscopedb.TString
	}
	return mscopedb.Column{Name: name, Type: v}
}

// add stages one record, vals being its typed fields: absent fields are
// empty cells, a duplicate field name keeps its last value.
func (a *appender) add(e *mxml.Entry, vals []mscopedb.Value) error {
	if a.table == nil {
		// The first field of the first record makes the table; the loop
		// below adds the rest like any field the table has not seen.
		if len(e.Fields) == 0 {
			return fmt.Errorf("stream: %s: record with no fields", a.name)
		}
		t, err := a.db.Create(a.name, []mscopedb.Column{columnFor(e.Fields[0].Name, vals[0].Type)})
		if err != nil {
			return err
		}
		a.table, a.cols, a.unset = t, t.Columns(), []bool{vals[0].Type == 0}
	}
	a.pos = a.pos[:0]
	for i, f := range e.Fields {
		ci := a.table.ColIndex(f.Name)
		switch v := vals[i].Type; {
		case ci < 0:
			ci = len(a.cols)
			if err := a.alter(func() error { return a.table.AddColumn(columnFor(f.Name, v)) }); err != nil {
				return err
			}
			a.unset = append(a.unset, v == 0)
		case v == 0:
		case a.unset[ci]:
			a.unset[ci] = false
			if v != mscopedb.TString {
				if err := a.alter(func() error { return a.table.Retype(f.Name, v) }); err != nil {
					return err
				}
			}
		default:
			if want := xmlcsv.Widen(a.cols[ci].Type, v); want != a.cols[ci].Type {
				if err := a.alter(func() error { return a.table.Widen(f.Name, want) }); err != nil {
					return err
				}
			}
		}
		a.pos = append(a.pos, ci)
	}
	nc := len(a.cols)
	base := a.staged * nc
	if base+nc > len(a.cells) {
		a.cells = append(a.cells[:base], make([]mscopedb.Value, max(nc, len(a.cells)))...)
	}
	row := a.cells[base : base+nc]
	clear(row)
	for i, ci := range a.pos {
		row[ci] = vals[i]
	}
	a.staged++
	return nil
}

// alter changes the table's schema: the rows staged under the old one go in
// first, and the cached schema is read back after.
func (a *appender) alter(change func() error) error {
	if err := a.flush(); err != nil {
		return err
	}
	if err := change(); err != nil {
		return err
	}
	a.cols = a.table.Columns()
	return nil
}

// flush appends the staged rows to the table.
func (a *appender) flush() error {
	if a.staged == 0 {
		return nil
	}
	n := a.staged * len(a.cols)
	a.staged = 0
	return a.table.AppendRows(a.cells[:n])
}
