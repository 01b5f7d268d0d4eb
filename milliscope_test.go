package milliscope_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/report"
)

// TestPublicAPIEndToEnd walks the full public surface: run → ingest →
// query → traces → diagnosis → figure rendering, on a short faulted trial.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := milliscope.ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 100
	cfg.Ntier.Duration = 9 * time.Second
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Requests == 0 {
		t.Fatal("no requests completed")
	}
	db, rep, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRows() == 0 {
		t.Fatal("no rows ingested")
	}

	// Query.
	out, err := milliscope.Query(db,
		"SELECT reqid, rt_us FROM apache_event ORDER BY rt_us DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("query rows %d", len(out.Rows))
	}

	// Traces + rendering.
	traces, err := milliscope.BuildTraces(db)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := traces[out.Rows[0][0]]
	if !ok {
		t.Fatalf("no trace for %s", out.Rows[0][0])
	}
	var buf bytes.Buffer
	if err := report.RenderTrace(&buf, tr, 60); err != nil {
		t.Fatal(err)
	}
	for _, tier := range milliscope.Tiers {
		if !strings.Contains(buf.String(), tier) {
			t.Fatalf("trace render missing tier %s:\n%s", tier, buf.String())
		}
	}

	// Diagnosis (the flush fires at t=6s, inside this 9s trial).
	diag, err := milliscope.Diagnose(db, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Windows) == 0 {
		t.Fatal("no VLRT window diagnosed")
	}
	if diag.Windows[0].Kind != core.CauseDiskIO || diag.Windows[0].Node != "mysql" {
		t.Fatalf("diagnosis %v@%s", diag.Windows[0].Kind, diag.Windows[0].Node)
	}

	// Figures render the diagnosis.
	if diag.PIT.PeakFactor() < 10 {
		t.Fatalf("peak factor %.1f", diag.PIT.PeakFactor())
	}
	buf.Reset()
	if err := milliscope.Fig2PointInTime(diag).Render(&buf, 60, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig2") {
		t.Fatal("figure render missing id")
	}
}

// TestWarehousePersistenceAcrossAPI commits and reopens through the façade.
func TestWarehousePersistenceAcrossAPI(t *testing.T) {
	cfg := milliscope.ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 30
	cfg.Ntier.Duration = 2 * time.Second
	cfg.Injectors = nil
	res, err := milliscope.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := mscopedb.OpenDir(dir, mscopedb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := milliscope.IngestDir(db, res.Config.LogDir, t.TempDir(), milliscope.DefaultPlan()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2, err := mscopedb.OpenDir(dir, mscopedb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dbtest.Same(t, "reopened against committed", dbtest.Dump(t, db), dbtest.Dump(t, db2))
	o1, err := milliscope.Query(db, "SELECT WINDOW 1s COUNT() BY ud FROM apache_event")
	if err != nil {
		t.Fatal(err)
	}
	o2, err := milliscope.Query(db2, "SELECT WINDOW 1s COUNT() BY ud FROM apache_event")
	if err != nil {
		t.Fatal(err)
	}
	if o1.Len() != o2.Len() {
		t.Fatalf("reloaded warehouse differs: %d vs %d windows", o1.Len(), o2.Len())
	}
	for i := 0; i < o1.Len(); i++ {
		if c1, c2 := o1.AppendCell(nil, i, 1), o2.AppendCell(nil, i, 1); string(c1) != string(c2) {
			t.Fatalf("window %d differs: %s vs %s", i, c1, c2)
		}
	}
}

// TestDeterministicWarehouse: identical configs produce identical
// warehouse contents (the reproducibility guarantee).
func TestDeterministicWarehouse(t *testing.T) {
	build := func() string {
		cfg := milliscope.ScenarioDBIO(t.TempDir())
		cfg.Ntier.Users = 40
		cfg.Ntier.Duration = 2 * time.Second
		res, err := milliscope.RunExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := res.Ingest(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out, err := milliscope.Query(db,
			"SELECT reqid, ua, ud FROM mysql_event ORDER BY ua ASC LIMIT 50")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range out.Rows {
			b.WriteString(strings.Join(r, ","))
			b.WriteByte('\n')
		}
		return b.String()
	}
	if build() != build() {
		t.Fatal("identical configs produced different warehouses")
	}
}

// facadeSignatureTypes are the aliases the root package keeps so the
// types in its exported signatures stay nameable, whether or not an
// example spells them.
var facadeSignatureTypes = map[string]bool{
	"DB": true, "Plan": true, "Diagnosis": true,
	"QueryOutput": true, "Trace": true, "OverheadPoint": true,
}

// TestFacadeIsExactlyWhatExamplesUse keeps the root package from growing
// back into a re-export layer: every exported name in milliscope.go must
// be referenced by some program under examples/ (or be one of the
// signature-type aliases above), and the mscope command must reach the
// internal packages directly instead of through this one.
func TestFacadeIsExactlyWhatExamplesUse(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "milliscope" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	f, err := parser.ParseFile(fset, "milliscope.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported = append(exported, n.Name)
					}
				}
			}
		}
	}
	for _, name := range exported {
		if ast.IsExported(name) && !used[name] && !facadeSignatureTypes[name] {
			t.Errorf("milliscope.go exports %s, which no example uses: call the internal package instead", name)
		}
	}

	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"github.com/gt-elba/milliscope"` {
				t.Errorf("%s imports the root package: import the internal packages it drives", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
