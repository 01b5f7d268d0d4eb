package main

import (
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/report"
)

func TestScenarioConfigResolution(t *testing.T) {
	cfg, err := scenarioConfig("dbio", "/tmp/x", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "dbio" || cfg.LogDir != "/tmp/x" {
		t.Fatalf("cfg %+v", cfg)
	}
	cfg, err = scenarioConfig("dirtypage", "/tmp/x", 500, 3*time.Second, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ntier.Users != 500 || cfg.Ntier.Duration != 3*time.Second || cfg.Ntier.Seed != 99 {
		t.Fatalf("overrides not applied: %+v", cfg.Ntier)
	}
	cfg, err = scenarioConfig("accuracy", "/tmp/x", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ntier.Users != 8000 || !cfg.CaptureNet {
		t.Fatalf("accuracy defaults: %+v", cfg.Ntier)
	}
	for _, name := range []string{"jvmgc", "dvfs"} {
		cfg, err := scenarioConfig(name, "/tmp/x", 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cfg.Injectors) == 0 {
			t.Fatalf("%s scenario has no injectors", name)
		}
	}
	// Every catalogue entry, not only the paper's four, takes the same
	// overrides.
	cfg, err = scenarioConfig("connpool", "/tmp/x", 0, 0, 77)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "connpool" || len(cfg.Injectors) == 0 || cfg.LogDir != "/tmp/x" {
		t.Fatalf("catalogue fallback: %+v", cfg)
	}
	if cfg.Ntier.Seed != 77 {
		t.Fatalf("catalogue fallback seed override not applied: %+v", cfg.Ntier)
	}
	if _, err := scenarioConfig("nope", "/tmp/x", 0, 0, 0); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestScenarioConfigResolvesEveryName: --scenario accepts exactly the
// catalogue's entries plus accuracy, each under its own name.
func TestScenarioConfigResolvesEveryName(t *testing.T) {
	for _, name := range append(core.ScenarioNames(), "accuracy", "nope") {
		t.Run(name, func(t *testing.T) {
			cfg, err := scenarioConfig(name, "/tmp/x", 0, time.Second, 0)
			_, inCatalogue := core.ScenarioByName(name)
			switch {
			case !inCatalogue && name != "accuracy":
				if err == nil {
					t.Fatalf("unknown scenario %q accepted", name)
				}
			case err != nil:
				t.Fatal(err)
			case !strings.HasPrefix(cfg.Name, name) || cfg.LogDir != "/tmp/x" || cfg.Ntier.Duration != time.Second:
				t.Fatalf("%s resolved to %+v", name, cfg)
			}
		})
	}
}

func TestCommandDispatchErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("empty args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help errored: %v", err)
	}
	if err := run([]string{"run"}); err == nil {
		t.Fatal("run without --out accepted")
	}
	if err := run([]string{"ingest"}); err == nil {
		t.Fatal("ingest without flags accepted")
	}
	if err := run([]string{"query", "--db", "/nope.db", "SELECT 1"}); err == nil {
		t.Fatal("query against missing db accepted")
	}
	if err := run([]string{"report"}); err == nil {
		t.Fatal("report without --db accepted")
	}
	if err := run([]string{"diagnose"}); err == nil {
		t.Fatal("diagnose without --db accepted")
	}
	if err := run([]string{"trace"}); err == nil {
		t.Fatal("trace without --db accepted")
	}
	if err := run([]string{"selftrace"}); err == nil {
		t.Fatal("selftrace without --db accepted")
	}
	if err := run([]string{"experiment"}); err == nil {
		t.Fatal("experiment without --out accepted")
	}
}

// TestCLIPipeline exercises run → ingest → tables/query/report/diagnose/
// trace against real files, without spawning processes.
func TestCLIPipeline(t *testing.T) {
	base := t.TempDir()
	logs := filepath.Join(base, "logs")
	work := filepath.Join(base, "work")
	dbPath := filepath.Join(base, "w.db")

	if err := run([]string{"run", "--scenario", "dbio", "--out", logs,
		"--users", "80", "--duration", "8s"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"ingest", "--logs", logs, "--work", work, "--db", dbPath}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := os.Stat(dbPath); err != nil {
		t.Fatalf("warehouse not written: %v", err)
	}
	for _, args := range [][]string{
		{"tables", "--db", dbPath},
		{"query", "--db", dbPath, "SELECT reqid FROM apache_event LIMIT 2"},
		{"report", "--db", dbPath, "--figure", "fig2", "--width", "40", "--height", "6"},
		{"report", "--db", dbPath, "--figure", "fig6", "--width", "40", "--height", "6"},
		{"diagnose", "--db", dbPath},
		{"trace", "--db", dbPath, "--width", "50", "--breakdown"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if err := run([]string{"report", "--db", dbPath, "--figure", "fig9"}); err == nil {
		t.Fatal("fig9 without --trace accepted")
	}
	if err := run([]string{"report", "--db", dbPath, "--figure", "nope"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// CSV and table report formats.
	if err := run([]string{"report", "--db", dbPath, "--figure", "fig2", "--format", "csv"}); err != nil {
		t.Fatalf("csv report: %v", err)
	}
	if err := run([]string{"report", "--db", dbPath, "--figure", "fig2", "--format", "nope"}); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestCLISelfTelemetryDogfood closes the self-observability loop through
// the real CLI: an instrumented ingest writes its own telemetry as a
// milliScope-native log, a second ingest loads that log through the very
// pipeline it describes, and selftrace renders the breakdown.
func TestCLISelfTelemetryDogfood(t *testing.T) {
	base := t.TempDir()
	logs := filepath.Join(base, "logs")
	dbPath := filepath.Join(base, "w.db")
	selfDir := filepath.Join(base, "self")
	if err := os.MkdirAll(selfDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "--scenario", "dbio", "--out", logs,
		"--users", "40", "--duration", "4s"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"ingest", "--logs", logs, "--work", filepath.Join(base, "work"),
		"--db", dbPath, "--workers", "4", "--self-log", selfDir}); err != nil {
		t.Fatalf("instrumented ingest: %v", err)
	}
	selfLog := filepath.Join(selfDir, "mscope_selftrace.log")
	if st, err := os.Stat(selfLog); err != nil || st.Size() == 0 {
		t.Fatalf("self-log not written: %v", err)
	}
	if err := run([]string{"ingest", "--logs", selfDir, "--work", filepath.Join(base, "work2"),
		"--db", dbPath}); err != nil {
		t.Fatalf("telemetry ingest: %v", err)
	}
	db, err := mscopedb.OpenDir(dbPath, mscopedb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := core.SelfTraceBreakdown(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("got %d batches, want 1", len(batches))
	}
	if b := batches[0]; b.Table != "mscope_selftrace" || b.Spans == 0 || len(b.Stages) == 0 {
		t.Fatalf("batch %+v", b)
	}
	if err := run([]string{"selftrace", "--db", dbPath}); err != nil {
		t.Fatalf("selftrace: %v", err)
	}
}

// TestCLIPlanRoundTrip: dump the declaration, use it explicitly for ingest.
func TestCLIPlanRoundTrip(t *testing.T) {
	base := t.TempDir()
	planPath := filepath.Join(base, "plan.json")
	if err := run([]string{"plan", "--out", planPath}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := os.Stat(planPath); err != nil {
		t.Fatal(err)
	}
	logs := filepath.Join(base, "logs")
	if err := run([]string{"run", "--scenario", "dbio", "--out", logs,
		"--users", "30", "--duration", "2s"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	dbPath := filepath.Join(base, "w.db")
	if err := run([]string{"ingest", "--logs", logs, "--work", filepath.Join(base, "work"),
		"--db", dbPath, "--plan", planPath}); err != nil {
		t.Fatalf("ingest with plan: %v", err)
	}
	if err := run([]string{"ingest", "--logs", logs, "--work", filepath.Join(base, "work2"),
		"--db", filepath.Join(base, "w2.db"), "--plan", filepath.Join(base, "nope.json")}); err == nil {
		t.Fatal("missing plan file accepted")
	}
}

// TestCLIAccuracyTraceRoundTrip verifies the netcap trace file path feeds
// fig9 reporting.
func TestCLIAccuracyTraceRoundTrip(t *testing.T) {
	base := t.TempDir()
	logs := filepath.Join(base, "logs")
	work := filepath.Join(base, "work")
	dbPath := filepath.Join(base, "w.db")
	if err := run([]string{"run", "--scenario", "accuracy", "--out", logs,
		"--users", "500", "--duration", "5s"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	trace := filepath.Join(logs, "trace.csv")
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	if err := run([]string{"ingest", "--logs", logs, "--work", work, "--db", dbPath}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := run([]string{"report", "--db", dbPath, "--figure", "fig9",
		"--trace", trace, "--width", "40", "--height", "6"}); err != nil {
		t.Fatalf("fig9 report: %v", err)
	}
}

func TestBuildFiguresAgainstWarehouse(t *testing.T) {
	cfg := core.ScenarioDBIO(t.TempDir())
	cfg.Ntier.Users = 60
	cfg.Ntier.Duration = 8 * time.Second
	res, err := core.RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := res.Ingest(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2", "fig4", "fig6", "fig7", "fig8"} {
		figs, err := buildFigures(db, name, "", 50*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(figs) == 0 {
			t.Fatalf("%s produced no figures", name)
		}
	}
}

// TestExperimentGatesOnClaims: the experiment prints every figure and the
// claims table, and a claim outside its bound fails the command.
func TestExperimentGatesOnClaims(t *testing.T) {
	ev := &core.Evaluation{
		Figures: []*report.Figure{{ID: "fig2", Title: "PIT", Notes: []string{"peak/avg factor 36.7x"}}},
		Claims: []core.Claim{
			{Figure: "Fig 2", Paper: "peak > 20x average", Metric: "peak/avg", Value: 36.7, Unit: "×", Op: "≥", Bound: 20},
			{Figure: "Fig 11", Paper: "throughput unchanged", Metric: "delta", Value: 0.4, Unit: "%", Op: "≤", Bound: 2},
		},
	}
	var out strings.Builder
	if err := printEvaluation(&out, ev, 40, 6); err != nil {
		t.Fatalf("every claim met, yet: %v", err)
	}
	for _, want := range []string{"fig2", "| Fig 2 | peak > 20x average | peak/avg | 36.7 × | ≥ 20 | ok |", "| 0.4 % | ≤ 2 | ok |"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	ev.Claims[1].Value = 2.5
	out.Reset()
	if err := printEvaluation(&out, ev, 40, 6); err == nil || !strings.Contains(err.Error(), "1 of 2 claims") {
		t.Fatalf("a missed bound gave %v", err)
	}
	if !strings.Contains(out.String(), "| 2.5 % | ≤ 2 | MISSED |") {
		t.Fatalf("the missed row is not marked:\n%s", out.String())
	}
}

// TestCLIOneWarehouse: --db is one directory from the command that writes
// it to every command that reads it; a regular file there is refused as not
// being one.
func TestCLIOneWarehouse(t *testing.T) {
	base := t.TempDir()
	logs, wh := filepath.Join(base, "logs"), filepath.Join(base, "wh")
	if err := run([]string{"run", "--scenario", "dbio", "--out", logs, "--users", "60", "--duration", "6s"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, args := range [][]string{
		{"ingest", "--logs", logs, "--work", filepath.Join(base, "work"), "--db", wh},
		{"diagnose", "--db", wh},
		{"compact", "--db", wh},
		{"tables", "--db", wh},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	ents, err := os.ReadDir(wh)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "MANIFEST.json" && !strings.HasSuffix(n, ".seg") {
			t.Errorf("the warehouse directory holds %s", n)
		}
	}

	// serve answers over the same directory until it is interrupted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	served := make(chan error, 1)
	go func() { served <- run([]string{"serve", "--db", wh, "--listen", addr}) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/api/tables")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "apache_event") {
				t.Errorf("/api/tables: %d %.200s", resp.StatusCode, body)
			}
			break
		}
		select {
		case err := <-served:
			t.Fatalf("serve exited: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never answered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// A regular file is not a warehouse, whatever it holds.
	file := filepath.Join(base, "old.db")
	if err := os.WriteFile(file, []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"diagnose", "--db", file},
		{"ingest", "--logs", logs, "--work", filepath.Join(base, "work"), "--db", file},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "not a warehouse directory") {
			t.Fatalf("%v over a regular file: %v", args, err)
		}
	}
}

// helpStanzas runs `mscope cmd -h` and returns each flag's usage stanza —
// name, type, help and default, exactly as printed — by flag name.
func helpStanzas(t *testing.T, cmd string) map[string]string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{cmd, "-h"})
	os.Stderr = stderr
	w.Close()
	text, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("%s -h: %v", cmd, runErr)
	}
	stanzas := make(map[string]string)
	name := ""
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(line)[0][1:]
		}
		if name != "" && line != "" {
			stanzas[name] += line + "\n"
		}
	}
	return stanzas
}

// TestSharedFlagsCannotDrift: the flags more than one command takes read
// the same — name, type, default, help — under every command that takes
// them, and each of those commands does take them.
func TestSharedFlagsCannotDrift(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		cmds  []string
	}{
		{[]string{"db"}, []string{"ingest", "live", "collector", "tables", "query", "report", "diagnose", "trace", "selftrace", "serve", "compact"}},
		{[]string{"budget", "fidelity", "http", "serve"}, []string{"live", "collector"}},
	} {
		ref := helpStanzas(t, tc.cmds[0])
		for _, cmd := range tc.cmds[1:] {
			got := helpStanzas(t, cmd)
			for _, f := range tc.flags {
				if ref[f] == "" {
					t.Errorf("%s has no --%s", tc.cmds[0], f)
				} else if got[f] != ref[f] {
					t.Errorf("--%s reads differently under %s and %s:\n%s%s", f, tc.cmds[0], cmd, ref[f], got[f])
				}
			}
		}
	}
}

// TestCLIBudgetRange: an out-of-range --budget is an error naming the
// value, raised before --db is created, under ingest and under the engine
// commands; 0 (the default), 0.05 and 1 are accepted.
func TestCLIBudgetRange(t *testing.T) {
	logs := t.TempDir()
	for _, budget := range []string{"0", "0.05", "1"} {
		db := filepath.Join(t.TempDir(), "wh")
		if err := run([]string{"ingest", "--logs", logs, "--work", t.TempDir(), "--db", db,
			"--mode", "quarantine", "--budget", budget}); err != nil {
			t.Errorf("ingest --budget %s: %v", budget, err)
		}
	}
	for _, budget := range []string{"NaN", "-0.1", "1.5"} {
		for _, args := range [][]string{
			{"ingest", "--logs", logs, "--work", t.TempDir(), "--mode", "quarantine"},
			{"live", "--out", t.TempDir(), "--users", "10", "--duration", "1s", "--speed", "100"},
			// An unknown network makes the collector fail fast should the
			// budget ever get past the flags again.
			{"collector", "--network", "bogus", "--listen", "127.0.0.1:0"},
		} {
			db := filepath.Join(t.TempDir(), "wh")
			err := run(append(args, "--db", db, "--budget", budget))
			if err == nil || !strings.Contains(err.Error(), "--budget: error budget "+budget) {
				t.Errorf("%s --budget %s: err = %v, want one naming the value", args[0], budget, err)
			}
			if _, err := os.Stat(db); !os.IsNotExist(err) {
				t.Errorf("%s --budget %s: --db touched before the flag was checked", args[0], budget)
			}
		}
	}
}

// TestCLIChaosRange: a fault probability outside [0, 1] (NaN too) under
// chaos --rate and --gap and live --chaos-rate, or a live --rotate outside
// [0, 1), is an error naming the flag and the value, raised before the
// command writes anything; the ends of chaos's ranges are accepted.
func TestCLIChaosRange(t *testing.T) {
	logs := t.TempDir()
	for _, args := range [][]string{{"--rate", "0"}, {"--rate", "1"}, {"--gap", "1"}} {
		if err := run(append([]string{"chaos", "--logs", logs, "--out", t.TempDir()}, args...)); err != nil {
			t.Errorf("chaos %s %s: %v", args[0], args[1], err)
		}
	}
	for _, tc := range []struct{ cmd, flag, value string }{
		{"chaos", "rate", "NaN"}, {"chaos", "rate", "-0.1"}, {"chaos", "rate", "1.5"},
		{"chaos", "gap", "NaN"}, {"chaos", "gap", "2"},
		{"live", "chaos-rate", "NaN"}, {"live", "chaos-rate", "-0.1"}, {"live", "chaos-rate", "1.5"},
		{"live", "rotate", "NaN"}, {"live", "rotate", "-0.5"}, {"live", "rotate", "1"}, {"live", "rotate", "2"},
	} {
		out := filepath.Join(t.TempDir(), "out")
		db := filepath.Join(t.TempDir(), "wh")
		args := []string{"chaos", "--logs", logs, "--out", out}
		if tc.cmd == "live" {
			args = []string{"live", "--out", out, "--db", db, "--users", "10", "--duration", "1s", "--speed", "100"}
		}
		err := run(append(args, "--"+tc.flag, tc.value))
		if want := "--" + tc.flag + " " + tc.value + " outside"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s --%s %s: err = %v, want one naming the flag and value", tc.cmd, tc.flag, tc.value, err)
		}
		for _, dir := range []string{out, db} {
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("%s --%s %s: %s written before the flag was checked", tc.cmd, tc.flag, tc.value, dir)
			}
		}
	}
}

// TestCLIWorkersRange: --workers 0, the default, is one worker per CPU; a
// negative count is an error naming the flag and the value, raised before
// --db is created.
func TestCLIWorkersRange(t *testing.T) {
	logs := t.TempDir()
	if err := run([]string{"ingest", "--logs", logs, "--work", t.TempDir(),
		"--db", filepath.Join(t.TempDir(), "wh"), "--workers", "0"}); err != nil {
		t.Errorf("ingest --workers 0: %v", err)
	}
	db := filepath.Join(t.TempDir(), "wh")
	err := run([]string{"ingest", "--logs", logs, "--work", t.TempDir(), "--db", db, "--workers", "-1"})
	if err == nil || !strings.Contains(err.Error(), "--workers -1") {
		t.Errorf("ingest --workers -1: err = %v, want one naming the flag and value", err)
	}
	if _, err := os.Stat(db); !os.IsNotExist(err) {
		t.Errorf("ingest --workers -1: --db touched before the flag was checked")
	}
}
