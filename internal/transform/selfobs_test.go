package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
)

// TestInstrumentedIngestMatchesDisabled extends the engine-vs-oracle
// suite with the self-observability axis: a four-worker ingest with span
// instrumentation ENABLED must produce a warehouse
// byte-identical to the uninstrumented one-worker ingest. Telemetry observes
// the pipeline; it must never perturb it.
func TestInstrumentedIngestMatchesDisabled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt bool
		opts    Options
	}{
		{"clean-failfast", false, Options{}},
		{"corrupt-quarantine", true, Options{Policy: Quarantine, ErrorBudget: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logDir := writeSyntheticDir(t, tc.corrupt)
			workDir := t.TempDir()

			selfobs.Disable()
			optsS := tc.opts
			optsS.Workers = 1
			optsS.QuarantineDir = t.TempDir()
			dbS := mscopedb.Open()
			repS, errS := IngestDirWithOptions(dbS, logDir, workDir, DefaultPlan(), optsS)

			c := selfobs.Enable("diff", time.Unix(0, 0).UTC())
			defer selfobs.Disable()
			optsP := tc.opts
			optsP.Workers = 4
			optsP.QuarantineDir = t.TempDir()
			dbP := mscopedb.Open()
			repP, errP := IngestDirWithOptions(dbP, logDir, workDir, DefaultPlan(), optsP)
			selfobs.Disable()

			if (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
				t.Fatalf("ingest errors differ:\ndisabled serial      %v\ninstrumented parallel %v", errS, errP)
			}
			reportsEqual(t, repS, repP)
			dbtest.Same(t, "instrumented against disabled", dbtest.Dump(t, dbS), dbtest.Dump(t, dbP))

			// The run must actually have been observed, and its telemetry
			// must round-trip through the registered selftrace parser.
			if c.Len() == 0 {
				t.Fatal("instrumented ingest produced no spans")
			}
			var sb strings.Builder
			lines, err := c.WriteLog(&sb)
			if err != nil {
				t.Fatal(err)
			}
			p, err := parsers.Get("selftrace")
			if err != nil {
				t.Fatal(err)
			}
			parsed := 0
			err = p.Parse(strings.NewReader(sb.String()), parsers.Instructions{}, func(mxml.Entry) error {
				parsed++
				return nil
			})
			if err != nil {
				t.Fatalf("self-telemetry log does not parse: %v", err)
			}
			if parsed != lines {
				t.Fatalf("parsed %d of %d self-telemetry lines", parsed, lines)
			}
			// Every instrumented stage must be represented.
			for _, stage := range []string{"parse", "append", "convert", "build"} {
				if !strings.Contains(sb.String(), fmt.Sprintf("stage=%s", stage)) {
					t.Errorf("telemetry missing stage %q", stage)
				}
			}
		})
	}
}

// TestFailedCommitLeavesAnAppendSpan: the sequencer's append span covers a
// file whose install, ledger row or commit fails too. A directory squatting
// on the manifest's temp name (file modes do nothing for a root test run)
// makes the first per-file commit fail: the ingest returns that error and
// its self-trace holds one append span, errs 1.
func TestFailedCommitLeavesAnAppendSpan(t *testing.T) {
	dir := t.TempDir()
	db, err := mscopedb.OpenDir(dir, mscopedb.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "MANIFEST.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := selfobs.Enable("failed-commit", time.Unix(0, 0).UTC())
	defer selfobs.Disable()
	_, err = IngestDirWithOptions(db, writeSyntheticDir(t, false), t.TempDir(), DefaultPlan(), Options{})
	selfobs.Disable()
	if err == nil || !strings.Contains(err.Error(), "MANIFEST.json.tmp") {
		t.Fatalf("ingest over a blocked manifest returned %v", err)
	}
	var appends []selfobs.Rec
	for _, r := range c.Snapshot() {
		if r.Pipeline == selfobs.PipeIngest && r.Stage == "append" {
			appends = append(appends, r)
		}
	}
	if len(appends) != 1 || appends[0].Errs != 1 || appends[0].File != "apache_access.log" {
		t.Fatalf("append spans of the failed ingest: %+v, want one for apache_access.log with errs 1", appends)
	}
}
