package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/transform"
)

// The differential suite holds the on-disk segment store to the only
// standard that matters: a spill-backed warehouse must be observably
// identical to the in-memory one — same cells, same diagnosis, same
// verdicts — for every scenario in the catalogue, even when the ingest
// process is killed partway through and resumed from the manifest.

// stageTrial runs the scenario's trial (and its post-run tier deletion,
// if any) and returns the directory whose logs both warehouses ingest.
func stageTrial(t *testing.T, s *core.Spec, work string) string {
	t.Helper()
	logDir := filepath.Join(work, s.Name, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build(logDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatalf("run %s: %v", s.Name, err)
	}
	srcDir := logDir
	if len(s.DeleteTiers) > 0 {
		srcDir = filepath.Join(work, s.Name, "corrupted")
		fcfg := faults.Config{
			Seed:        s.Seed,
			Kinds:       []faults.Kind{faults.KindDeleteTier},
			DeleteTiers: s.DeleteTiers,
		}
		if _, err := faults.Corrupt(logDir, srcDir, fcfg); err != nil {
			t.Fatalf("delete tiers %s: %v", s.Name, err)
		}
	}
	return srcDir
}

func mustIngest(t *testing.T, db *mscopedb.DB, srcDir, work string) transform.Report {
	t.Helper()
	rep, err := transform.IngestDir(db, srcDir, work, transform.DefaultPlan())
	if err != nil {
		t.Fatalf("ingest %s: %v", srcDir, err)
	}
	return rep
}

func mustDiagnose(t *testing.T, db *mscopedb.DB) *core.Diagnosis {
	t.Helper()
	diag, err := core.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	return diag
}

// diagKey renders a diagnosis to a comparable form: PIT statistics,
// degradation, and every window's kind, node, bounds and verdict.
func diagKey(d *core.Diagnosis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d avg=%x max=%x degraded=%v missing=%s\n",
		d.PIT.Requests, math.Float64bits(d.PIT.AvgUS), math.Float64bits(d.PIT.MaxUS),
		d.Degraded(), strings.Join(d.MissingSources, ","))
	for _, w := range d.Windows {
		fmt.Fprintf(&b, "%s@%s [%d,%d] %s\n",
			w.Kind, w.Node, w.Window.StartMicros, w.Window.EndMicros, w.Verdict)
	}
	return b.String()
}

// renderRows flattens a table into one string per row, reading every
// cell through the public accessors (which route through the sealed
// part on spill-backed tables).
func renderRows(t *testing.T, tbl *mscopedb.Table) []string {
	t.Helper()
	cols := tbl.Columns()
	out := make([]string, tbl.Rows())
	var b strings.Builder
	for r := range out {
		b.Reset()
		for c := range cols {
			switch cols[c].Type {
			case mscopedb.TInt:
				fmt.Fprintf(&b, "%d\x1f", tbl.Int(c, r))
			case mscopedb.TFloat:
				fmt.Fprintf(&b, "%x\x1f", math.Float64bits(tbl.Float(c, r)))
			case mscopedb.TTime:
				fmt.Fprintf(&b, "%d\x1f", tbl.TimeMicros(c, r))
			default:
				fmt.Fprintf(&b, "%q\x1f", tbl.Str(c, r))
			}
		}
		out[r] = b.String()
	}
	return out
}

// assertSameWarehouse requires got to answer exactly like want: same
// tables, schemas, and cells. The static bookkeeping tables are compared
// as multisets — a killed-and-resumed ingest records the same provenance
// rows in a different order — while data tables must match row for row.
func assertSameWarehouse(t *testing.T, want, got *mscopedb.DB) {
	t.Helper()
	wn, gn := want.TableNames(), got.TableNames()
	if !slices.Equal(wn, gn) {
		t.Fatalf("table sets differ:\n  want %v\n  got  %v", wn, gn)
	}
	static := map[string]bool{
		mscopedb.TableExperiments: true, mscopedb.TableNodes: true,
		mscopedb.TableMonitors: true, mscopedb.TableIngests: true,
	}
	for _, name := range wn {
		wt, err := want.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := got.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		wc, gc := wt.Columns(), gt.Columns()
		if len(wc) != len(gc) {
			t.Fatalf("%s: %d columns vs %d", name, len(wc), len(gc))
		}
		for i := range wc {
			if wc[i] != gc[i] {
				t.Fatalf("%s: column %d is %+v vs %+v", name, i, wc[i], gc[i])
			}
		}
		if wt.Rows() != gt.Rows() {
			t.Fatalf("%s: %d rows vs %d", name, wt.Rows(), gt.Rows())
		}
		wr, gr := renderRows(t, wt), renderRows(t, gt)
		if static[name] {
			slices.Sort(wr)
			slices.Sort(gr)
		}
		for r := range wr {
			if wr[r] != gr[r] {
				t.Fatalf("%s row %d differs:\n  want %s\n  got  %s", name, r, wr[r], gr[r])
			}
		}
	}
}

// moveHalf relocates every other ingestible file from srcDir into
// holdDir, simulating the files an ingest never reached before dying.
func moveHalf(t *testing.T, srcDir, holdDir string) {
	t.Helper()
	if err := os.MkdirAll(holdDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if i%2 == 1 {
			if err := os.Rename(filepath.Join(srcDir, e.Name()), filepath.Join(holdDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		i++
	}
}

func moveBack(t *testing.T, holdDir, srcDir string) {
	t.Helper()
	entries, err := os.ReadDir(holdDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(holdDir, e.Name()), filepath.Join(srcDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

func totalSegs(db *mscopedb.DB) int {
	n := 0
	for _, name := range db.TableNames() {
		tbl, _ := db.Table(name)
		n += tbl.Segments()
	}
	return n
}

// TestSpillDifferential proves, for every catalogue scenario, that a
// spill-backed ingest — killed after loading half the files, reopened,
// and resumed — produces the same warehouse and the same diagnosis as a
// plain in-memory ingest, and that compaction and a final reopen change
// nothing observable.
func TestSpillDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spill differential skipped in -short")
	}
	work := t.TempDir()
	for _, s := range core.Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			srcDir := stageTrial(t, &s, work)
			// Every ingest shares one work dir: the provenance tables
			// record staged-artifact paths, which must match cell-for-cell.
			wdir := filepath.Join(work, s.Name, "ing")

			mem := mscopedb.Open()
			mustIngest(t, mem, srcDir, wdir)
			memDiag := diagKey(mustDiagnose(t, mem))

			// Phase 1: ingest half the files into the segment store, then
			// die. Each loaded file was checkpointed, so dropping the
			// handle without a final save is exactly a kill -9.
			opts := mscopedb.StoreOptions{SealRows: 512}
			spillDir := filepath.Join(work, s.Name, "spill")
			holdDir := filepath.Join(work, s.Name, "hold")
			moveHalf(t, srcDir, holdDir)
			db1, err := mscopedb.OpenDir(spillDir, opts)
			if err != nil {
				t.Fatal(err)
			}
			mustIngest(t, db1, srcDir, wdir)
			moveBack(t, holdDir, srcDir)

			// Phase 2: reopen from the manifest and resume. The ledger
			// must skip every file the dead process already loaded.
			db2, err := mscopedb.OpenDir(spillDir, opts)
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			rep := mustIngest(t, db2, srcDir, wdir)
			if len(rep.Unchanged) == 0 {
				t.Error("resume re-ingested every file; the ledger did not survive the kill")
			}
			assertSameWarehouse(t, mem, db2)
			if got := diagKey(mustDiagnose(t, db2)); got != memDiag {
				t.Errorf("spilled diagnosis diverged:\n%s\nvs in-memory:\n%s", got, memDiag)
			}
			if totalSegs(db2) == 0 {
				t.Error("no segments on disk; the differential exercised nothing")
			}

			// Phase 3: compaction and a final reopen are invisible to queries.
			if err := db2.Compact(); err != nil {
				t.Fatal(err)
			}
			assertSameWarehouse(t, mem, db2)
			db3, err := mscopedb.OpenDir(spillDir, opts)
			if err != nil {
				t.Fatalf("reopen after compact: %v", err)
			}
			assertSameWarehouse(t, mem, db3)
			if got := diagKey(mustDiagnose(t, db3)); got != memDiag {
				t.Errorf("reopened diagnosis diverged:\n%s\nvs in-memory:\n%s", got, memDiag)
			}
		})
	}
}

// TestDBSoak is the durable-warehouse soak behind `make db-soak`: a
// corpus at least 10x the configured in-memory tail budget is ingested
// with an artificially low spill threshold, the process is killed once
// mid-ingest and once mid-compaction (after the merged segment was
// swapped in but before the manifest committed), and the reopened
// warehouse must still produce the in-memory warehouse's exact cells
// and verdicts.
func TestDBSoak(t *testing.T) {
	if os.Getenv("MSCOPE_DB_SOAK") == "" {
		t.Skip("durable-warehouse soak: run via `make db-soak` (sets MSCOPE_DB_SOAK=1)")
	}
	work := t.TempDir()
	spec, ok := core.ScenarioByName("dbio")
	if !ok {
		t.Fatal("dbio scenario missing from catalogue")
	}
	s := *spec
	logDir := filepath.Join(work, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build(logDir)
	if err != nil {
		t.Fatal(err)
	}
	// A longer trial than the catalogue default, so the sealed corpus
	// dwarfs the in-memory tail budget by well over 10x.
	cfg.Ntier.Duration = 15 * time.Second
	if _, err := core.RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}

	wdir := filepath.Join(work, "ing")
	mem := mscopedb.Open()
	mustIngest(t, mem, logDir, wdir)
	memDiag := diagKey(mustDiagnose(t, mem))

	const sealRows = 128
	opts := mscopedb.StoreOptions{
		SealRows: sealRows, CompactMinSegs: 3, CompactTargetRows: sealRows * 16,
	}
	spillDir := filepath.Join(work, "spill")
	holdDir := filepath.Join(work, "hold")

	// Kill 1: mid-ingest.
	moveHalf(t, logDir, holdDir)
	db1, err := mscopedb.OpenDir(spillDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, db1, logDir, wdir)
	moveBack(t, holdDir, logDir)

	// Kill 2: mid-compaction. CompactOnce swaps the merged segment into
	// the live table but the manifest never commits — dying here leaves
	// an orphaned merged file the next open must sweep.
	db2, err := mscopedb.OpenDir(spillDir, opts)
	if err != nil {
		t.Fatalf("reopen after ingest kill: %v", err)
	}
	merged, err := db2.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !merged {
		t.Fatal("soak corpus produced no compactable run; lower SealRows")
	}

	// Recovery: reopen, resume the ingest, compact fully, commit.
	db3, err := mscopedb.OpenDir(spillDir, opts)
	if err != nil {
		t.Fatalf("reopen after compaction kill: %v", err)
	}
	rep := mustIngest(t, db3, logDir, wdir)
	if len(rep.Unchanged) == 0 {
		t.Error("resume re-ingested every file; the ledger did not survive the kill")
	}
	if err := db3.Compact(); err != nil {
		t.Fatal(err)
	}

	db4, err := mscopedb.OpenDir(spillDir, opts)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	// The RAM-budget claim, made concrete: every event table's sealed
	// on-disk prefix holds at least 10x the rows its in-memory tail may.
	for _, name := range db4.TableNames() {
		if !strings.HasSuffix(name, "_event") {
			continue
		}
		tbl, err := db4.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.SealedRows() < 10*sealRows {
			t.Errorf("%s: only %d sealed rows for a %d-row tail budget; corpus is not 10x RAM",
				name, tbl.SealedRows(), sealRows)
		}
	}
	assertSameWarehouse(t, mem, db4)
	if got := diagKey(mustDiagnose(t, db4)); got != memDiag {
		t.Errorf("soaked diagnosis diverged:\n%s\nvs in-memory:\n%s", got, memDiag)
	}
}
