package transform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/eventmon"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/ntier"
	"github.com/gt-elba/milliscope/internal/resmon"
)

func TestDefaultPlanFinds(t *testing.T) {
	plan := DefaultPlan()
	cases := map[string]string{
		"apache_access.log":  "token",
		"tomcat_mscope.log":  "token",
		"cjdbc_ctrl.log":     "token",
		"mysql_slow.log":     "mysql-slow",
		"apache_sar.log":     "sar",
		"tomcat_sar.xml":     "sar-xml",
		"mysql_iostat.log":   "iostat",
		"mysql_collectl.log": "collectl",
		"mysql_collectl.csv": "collectl-csv",
		"tomcat_pidstat.log": "pidstat",
	}
	for file, parser := range cases {
		b, ok := plan.Find(file)
		if !ok {
			t.Fatalf("no binding for %s", file)
		}
		if b.Parser != parser {
			t.Fatalf("%s bound to %s, want %s", file, b.Parser, parser)
		}
	}
	if _, ok := plan.Find("trace.csv"); ok {
		t.Fatal("network trace matched a binding")
	}
}

func TestHostDerivation(t *testing.T) {
	if h := HostOf("/logs/mysql_collectl.csv", Binding{}); h != "mysql" {
		t.Fatalf("host %q", h)
	}
	if h := HostOf("/logs/standalone.log", Binding{}); h != "standalone" {
		t.Fatalf("host %q", h)
	}
	if h := HostOf("/logs/x_y.log", Binding{Host: "fixed"}); h != "fixed" {
		t.Fatalf("host %q", h)
	}
}

func TestPlanSaveLoad(t *testing.T) {
	plan := DefaultPlan()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Bindings) != len(plan.Bindings) {
		t.Fatalf("loaded %d bindings, want %d", len(loaded.Bindings), len(plan.Bindings))
	}
	// Regexes and consts survive the round trip.
	b, ok := loaded.Find("apache_access.log")
	if !ok || b.Instructions.Pattern == "" {
		t.Fatal("apache pattern lost in round trip")
	}
	c, ok := loaded.Find("x_collectl.log")
	if !ok || c.Instructions.Const["date"] == "" {
		t.Fatal("collectl date const lost in round trip")
	}
}

func TestLoadPlanErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadPlan(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing plan accepted")
	}
	// Declarations that can never work are rejected up front, naming the
	// binding and the field at fault.
	for name, tc := range map[string]struct{ plan, want string }{
		"malformed glob": {
			`{"bindings":[{"glob":"*_slow.log","parser":"mysql-slow","table_suffix":"event"},
			 {"glob":"[_access.log","parser":"token","table_suffix":"event"}]}`,
			`binding 1: glob "[_access.log"`},
		"unknown parser": {
			`{"bindings":[{"glob":"*_access.log","parser":"tokn","table_suffix":"event"}]}`,
			`binding 0: parser "tokn"`},
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(tc.plan), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadPlan(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadPlan error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestIngestDirEndToEnd is the pipeline's flagship test: simulate an
// instrumented trial, then push every produced log through declaration →
// parse → convert → load, and verify warehouse contents against simulator
// ground truth.
func TestIngestDirEndToEnd(t *testing.T) {
	cfg := ntier.DefaultConfig()
	cfg.Users = 40
	cfg.Duration = time.Second
	cfg.ThinkTime = 250 * time.Millisecond
	cfg.Seed = 9
	sys := ntier.New(cfg)
	logDir := t.TempDir()
	ev, err := eventmon.AttachWithConfig(sys, logDir, eventmon.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rm, err := resmon.Start(sys, logDir, resmon.Config{
		Interval: 100 * time.Millisecond,
		Kinds:    []resmon.Kind{resmon.SARText, resmon.SARXML, resmon.Iostat, resmon.CollectlPlain, resmon.CollectlCSV, resmon.Pidstat},
	}, des.Time(cfg.Duration))
	if err != nil {
		t.Fatal(err)
	}
	ntier.Run(sys)
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rm.Close(); err != nil {
		t.Fatal(err)
	}

	db := mscopedb.Open()
	rep, err := IngestDir(db, logDir, t.TempDir(), DefaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	// 4 event logs + 6 resource logs per node * 4 nodes = 28 files.
	if len(rep.Files) != 28 {
		t.Fatalf("transformed %d files, want 28", len(rep.Files))
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("skipped %v", rep.Skipped)
	}
	if rep.TotalRows() == 0 {
		t.Fatal("no rows loaded")
	}

	// Event tables match simulator visit counts exactly.
	for _, srv := range sys.Servers() {
		tbl, err := db.Table(srv.Name() + "_event")
		if err != nil {
			t.Fatalf("event table for %s: %v", srv.Name(), err)
		}
		if uint64(tbl.Rows()) != srv.Visits() {
			t.Fatalf("%s_event has %d rows, server saw %d visits",
				srv.Name(), tbl.Rows(), srv.Visits())
		}
		// The boundary timestamp columns must exist and be ints (µs).
		for _, col := range []string{"ua", "ud"} {
			ci := tbl.ColIndex(col)
			if ci < 0 {
				t.Fatalf("%s_event lacks column %s", srv.Name(), col)
			}
			if tbl.Columns()[ci].Type != mscopedb.TInt {
				t.Fatalf("%s_event.%s is %v, want int", srv.Name(), col, tbl.Columns()[ci].Type)
			}
		}
	}

	// Resource tables have time-typed ts columns.
	for _, name := range []string{"mysql_collectlcsv", "apache_sar", "tomcat_sarxml", "mysql_iostat", "cjdbc_collectl", "tomcat_pidstat"} {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatalf("resource table %s: %v", name, err)
		}
		if tbl.Rows() < 5 {
			t.Fatalf("%s has %d rows", name, tbl.Rows())
		}
		ci := tbl.ColIndex("ts")
		if ci < 0 || tbl.Columns()[ci].Type != mscopedb.TTime {
			t.Fatalf("%s lacks a time ts column", name)
		}
	}

	// Cross-check: a request ID found in apache_event also appears in
	// tomcat_event and cjdbc_event (ID propagation through the pipeline).
	apacheT, err := db.Table("apache_event")
	if err != nil {
		t.Fatal(err)
	}
	res, err := apacheT.Select().Limit(1).Rows()
	if err != nil || res.Len() != 1 {
		t.Fatalf("sample row: %v", err)
	}
	ids, err := res.Strings("reqid")
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	for _, name := range []string{"tomcat_event", "cjdbc_event"} {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tbl.Select().Where("reqid", mscopedb.OpEq, id).Rows()
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() == 0 {
			t.Fatalf("request %s absent from %s", id, name)
		}
	}
}

func TestIngestDirMissingDir(t *testing.T) {
	db := mscopedb.Open()
	if _, err := IngestDir(db, filepath.Join(t.TempDir(), "nope"), t.TempDir(), DefaultPlan()); err == nil {
		t.Fatal("missing log dir accepted")
	}
}
