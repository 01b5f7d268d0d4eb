package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/transform"
)

// differentialScenarios enumerates every Section V trial the conformance
// suite replays. User counts are trimmed so four full trials plus their
// double ingests stay test-suite friendly; injection times and durations
// are untouched, so the logs still carry each scenario's anomaly.
func differentialScenarios() map[string]func(logDir string) ExperimentConfig {
	shrink := func(mk func(string) ExperimentConfig) func(string) ExperimentConfig {
		return func(logDir string) ExperimentConfig {
			cfg := mk(logDir)
			cfg.Ntier.Users = 50
			return cfg
		}
	}
	return map[string]func(string) ExperimentConfig{
		"dbio":      shrink(ScenarioDBIO),
		"dirtypage": shrink(ScenarioDirtyPage),
		"jvmgc":     shrink(ScenarioJVMGC),
		"dvfs":      shrink(ScenarioDVFS),
	}
}

func quarantineDirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// renderReport projects a transform.Report into a comparable string,
// keeping everything except the per-run quarantine directory prefix.
func renderReport(rep transform.Report) string {
	for i := range rep.Files {
		if rep.Files[i].QuarantinePath != "" {
			rep.Files[i].QuarantinePath = filepath.Base(rep.Files[i].QuarantinePath)
		}
	}
	var b []byte
	b = fmt.Appendf(b, "files %+v\nskipped %v\nunchanged %v\n",
		rep.Files, rep.Skipped, rep.Unchanged)
	for _, f := range rep.Failed {
		b = fmt.Appendf(b, "failed %s: %v\n", f.Input, f.Err)
	}
	return string(b)
}

// assertIngestEquivalent runs serial and parallel ingest over one log
// directory and asserts the tentpole contract: byte-identical warehouse
// dump, identical report, identical quarantine sinks, identical ledger
// offsets, and (under FailFast on damaged input) the identical first
// error.
func assertIngestEquivalent(t *testing.T, logDir string, opts transform.Options) {
	t.Helper()
	workDir := t.TempDir()
	qS := filepath.Join(t.TempDir(), "q-serial")
	qP := filepath.Join(t.TempDir(), "q-parallel")

	optsS, optsP := opts, opts
	optsS.Workers, optsS.QuarantineDir = 1, qS
	optsP.Workers, optsP.QuarantineDir = 4, qP

	dbS := mscopedb.Open()
	repS, errS := transform.IngestDirWithOptions(dbS, logDir, workDir, transform.DefaultPlan(), optsS)
	dbP := mscopedb.Open()
	repP, errP := transform.IngestDirWithOptions(dbP, logDir, workDir, transform.DefaultPlan(), optsP)

	if (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
		t.Fatalf("ingest errors diverge:\nserial   %v\nparallel %v", errS, errP)
	}
	if s, p := renderReport(repS), renderReport(repP); s != p {
		t.Errorf("ingest reports diverge:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	if s, p := fmt.Sprintf("%v", quarantineDirContents(t, qS)), fmt.Sprintf("%v", quarantineDirContents(t, qP)); s != p {
		t.Errorf("quarantine sinks diverge:\nserial   %s\nparallel %s", s, p)
	}
	// Ledger offsets, file by file.
	entries, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		full := filepath.Join(logDir, e.Name())
		offS, okS := dbS.LatestIngestOffset(full)
		offP, okP := dbP.LatestIngestOffset(full)
		if offS != offP || okS != okP {
			t.Errorf("ledger offset for %s diverges: serial %d/%v parallel %d/%v",
				e.Name(), offS, okS, offP, okP)
		}
	}
	dbtest.Same(t, "parallel against serial", dbtest.Dump(t, dbS), dbtest.Dump(t, dbP))
}

// TestDifferentialAllScenariosClean proves parallel ≡ serial on the clean
// logs of every Section V scenario, under both ingest policies. Skipped in
// -short mode (each scenario is a full simulated trial).
func TestDifferentialAllScenariosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("differential scenario sweep skipped in -short mode")
	}
	for name, mk := range differentialScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := mk(t.TempDir())
			cfg.Name = "diff-" + name
			if _, err := RunExperiment(cfg); err != nil {
				t.Fatal(err)
			}
			assertIngestEquivalent(t, cfg.LogDir, transform.Options{})
			assertIngestEquivalent(t, cfg.LogDir, transform.Options{Policy: transform.Quarantine})
		})
	}
}

// TestDifferentialChaosSeeds proves the equivalence survives deterministic
// corruption: three fault seeds at the documented 1% line rate under the
// quarantine budget, plus one tight-budget run that forces per-file
// rejections and one FailFast run that must abort both engines with the
// identical first error. Skipped in -short mode.
func TestDifferentialChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential chaos sweep skipped in -short mode")
	}
	cfg := differentialScenarios()["dbio"](t.TempDir())
	cfg.Name = "diff-chaos"
	if _, err := RunExperiment(cfg); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			corrupted := t.TempDir()
			frep, err := faults.Corrupt(cfg.LogDir, corrupted, faults.Config{Seed: seed, Rate: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			injected := 0
			for _, k := range faults.LineKinds() {
				injected += frep.Total(k)
			}
			if injected == 0 {
				t.Fatalf("seed %d injected nothing", seed)
			}
			assertIngestEquivalent(t, corrupted,
				transform.Options{Policy: transform.Quarantine, ErrorBudget: 0.25})
		})
	}
	t.Run("tight-budget", func(t *testing.T) {
		corrupted := t.TempDir()
		if _, err := faults.Corrupt(cfg.LogDir, corrupted, faults.Config{Seed: 1, Rate: 0.02}); err != nil {
			t.Fatal(err)
		}
		assertIngestEquivalent(t, corrupted,
			transform.Options{Policy: transform.Quarantine, ErrorBudget: 0.002})
	})
	t.Run("failfast-abort", func(t *testing.T) {
		corrupted := t.TempDir()
		if _, err := faults.Corrupt(cfg.LogDir, corrupted, faults.Config{Seed: 2, Rate: 0.01}); err != nil {
			t.Fatal(err)
		}
		assertIngestEquivalent(t, corrupted, transform.Options{})
	})
}
