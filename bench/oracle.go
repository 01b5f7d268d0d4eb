package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

// tableSig is what must match between a workload's warehouse and the
// reference: the row count and a digest of the schema and every cell.
type tableSig struct {
	Rows   int
	Digest uint64
}

// digestTable hashes a table's column names, types and every cell in row
// order (FNV-1a, so the value is stable across runs and machines). Cells
// are read through the table's accessors, which for a spilled table decode
// the sealed segments: a codec that loses a bit fails here.
func digestTable(t *mscopedb.Table) tableSig {
	h := fnv.New64a()
	cols := t.Columns()
	for _, c := range cols {
		fmt.Fprintf(h, "%s:%s;", c.Name, c.Type)
	}
	var b [8]byte
	for r := 0; r < t.Rows(); r++ {
		for c := range cols {
			switch cols[c].Type {
			case mscopedb.TInt:
				binary.LittleEndian.PutUint64(b[:], uint64(t.Int(c, r)))
				h.Write(b[:])
			case mscopedb.TFloat:
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.Float(c, r)))
				h.Write(b[:])
			case mscopedb.TTime:
				binary.LittleEndian.PutUint64(b[:], uint64(t.TimeMicros(c, r)))
				h.Write(b[:])
			default:
				h.Write([]byte(t.Str(c, r)))
				h.Write([]byte{0})
			}
		}
	}
	return tableSig{Rows: t.Rows(), Digest: h.Sum64()}
}

// isDataTable separates monitor tables from the warehouse's own
// bookkeeping (mscope_ingests records source paths, which differ between
// a workload's scratch directory and the reference's by design).
func isDataTable(name string) bool { return !strings.HasPrefix(name, "mscope_") }

// isStreamedTable reports whether the live and distributed paths load the
// table: they tail only the sources stream.Streamable admits.
func isStreamedTable(name string) bool {
	return strings.HasSuffix(name, "_event") || strings.HasSuffix(name, "_collectlcsv")
}

// reference is the serial in-memory ingest of a corpus: the answer every
// other way of loading or querying the same logs must reproduce.
type reference struct {
	db      *mscopedb.DB
	tables  map[string]tableSig
	windows []core.WindowDiagnosis
}

func buildReference(logDir, workDir string) (*reference, error) {
	db := mscopedb.Open()
	if _, err := transform.IngestDirWithOptions(db, logDir, workDir,
		transform.DefaultPlan(), transform.Options{Workers: 1}); err != nil {
		return nil, err
	}
	ref := &reference{db: db, tables: make(map[string]tableSig)}
	for _, name := range db.TableNames() {
		if !isDataTable(name) {
			continue
		}
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		ref.tables[name] = digestTable(t)
	}
	d, err := core.Diagnose(db, detectWindow)
	if err != nil {
		return nil, err
	}
	if len(d.Windows) == 0 {
		return nil, fmt.Errorf("reference diagnosis found no window: the corpus carries no fault")
	}
	ref.windows = d.Windows
	return ref, nil
}

// rows counts the reference rows of the tables scope admits.
func (ref *reference) rows(scope func(string) bool) int {
	n := 0
	for name, sig := range ref.tables {
		if scope(name) {
			n += sig.Rows
		}
	}
	return n
}

// tally counts checked operations; each mismatch, error, missing or
// spurious result is one failure, with a note saying which.
type tally struct {
	Attempted int
	Failed    int
	Notes     []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) fail(format string, args ...any) {
	t.Failed++
	if len(t.Notes) < 20 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// checkTables compares every reference table in scope with db's table of
// the same name, and fails any data table in db the reference lacks.
func (ref *reference) checkTables(t *tally, what string, db *mscopedb.DB, scope func(string) bool) {
	for name, want := range ref.tables {
		if !scope(name) {
			continue
		}
		if !db.HasTable(name) {
			t.check(false, "%s: table %s missing", what, name)
			continue
		}
		tbl, err := db.Table(name)
		if err != nil {
			t.check(false, "%s: table %s: %v", what, name, err)
			continue
		}
		got := digestTable(tbl)
		t.check(got == want, "%s: table %s: %d rows digest %x, reference %d rows digest %x",
			what, name, got.Rows, got.Digest, want.Rows, want.Digest)
	}
	for _, name := range db.TableNames() {
		if _, known := ref.tables[name]; isDataTable(name) && !known {
			t.fail("%s: table %s is not in the reference", what, name)
		}
	}
}

// checkVerdict requires a batch diagnosis of the same rows to find exactly
// the reference windows.
func (ref *reference) checkVerdict(t *tally, what string, d *core.Diagnosis) {
	same := len(d.Windows) == len(ref.windows)
	for i := 0; same && i < len(d.Windows); i++ {
		g, w := d.Windows[i], ref.windows[i]
		same = g.Kind == w.Kind && g.Node == w.Node && g.Window == w.Window
	}
	t.check(same, "%s: diagnosis found %d windows that differ from the reference's %d",
		what, len(d.Windows), len(ref.windows))
}

// matchAlerts pairs each reference window with the alert of the same kind
// and node whose window ends within tolUS of it. It returns, per reference
// window, the index of its alert (-1 when missing) and the indexes of
// alerts no reference window claims (spurious).
func matchAlerts(want []core.WindowDiagnosis, got []stream.Alert, tolUS int64) (matched []int, spurious []int) {
	used := make([]bool, len(got))
	matched = make([]int, len(want))
	for i, w := range want {
		matched[i] = -1
		for j, a := range got {
			d := a.Diagnosis
			if used[j] || d.Kind != w.Kind || d.Node != w.Node {
				continue
			}
			if diff := d.Window.EndMicros - w.Window.EndMicros; diff >= -tolUS && diff <= tolUS {
				matched[i], used[j] = j, true
				break
			}
		}
	}
	for j := range got {
		if !used[j] {
			spurious = append(spurious, j)
		}
	}
	return matched, spurious
}
