package transform

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// apacheLog builds n well-formed access-log lines.
func apacheLog(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "10.1.1.32 - - [01/Apr/2017:00:00:00.%03d +0000] \"GET /rubbos/Browse?ID=req-%07d HTTP/1.1\" 200 4096 D=900 UA=%d UD=%d DS=- DR=-\n",
			i%1000, i, 1491004800000000+int64(i)*1000, 1491004800000900+int64(i)*1000)
	}
	return b.String()
}

// TestQuarantineIngestExactCounts is the acceptance-criteria contract:
// corrupt a clean log with a known number of garbage lines, ingest under
// Quarantine, and the report must account for every injected fault.
func TestQuarantineIngestExactCounts(t *testing.T) {
	src := writeLogDir(t, map[string]string{"apache_access.log": apacheLog(400)})
	dst := t.TempDir()
	frep, err := faults.Corrupt(src, dst, faults.Config{
		Seed: 99, Rate: 0.01, Kinds: []faults.Kind{faults.KindGarbage}})
	if err != nil {
		t.Fatal(err)
	}
	injected := frep.Total(faults.KindGarbage)
	if injected == 0 {
		t.Fatal("corruptor injected nothing; raise the rate")
	}

	db := mscopedb.Open()
	rep, err := IngestDirWithOptions(db, dst, t.TempDir(), DefaultPlan(),
		Options{Policy: Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("files rejected at 1%% garbage: %+v", rep.Failed)
	}
	if got := rep.TotalQuarantined(); got != injected {
		t.Errorf("quarantined %d regions, corruptor injected %d", got, injected)
	}
	if len(rep.Files) != 1 || rep.Files[0].Entries != 400 {
		t.Errorf("surviving entries: %+v", rep.Files)
	}
}

// TestQuarantineSinkContents: diverted lines land in the per-file sink
// with file:line locations and the raw text.
func TestQuarantineSinkContents(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		"apache_access.log": goodApacheLine + "\nGARBAGE LINE\n" + goodApacheLine + "\n",
	})
	work := t.TempDir()
	db := mscopedb.Open()
	rep, err := IngestDirWithOptions(db, dir, work, DefaultPlan(),
		Options{Policy: Quarantine, ErrorBudget: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Files) != 1 || rep.Files[0].Quarantined != 1 {
		t.Fatalf("files: %+v", rep.Files)
	}
	qp := rep.Files[0].QuarantinePath
	if qp == "" {
		t.Fatal("no quarantine path recorded")
	}
	data, err := os.ReadFile(qp)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "apache_access.log:2:") {
		t.Errorf("sink lacks file:line location:\n%s", text)
	}
	if !strings.Contains(text, "GARBAGE LINE") {
		t.Errorf("sink lacks raw diverted text:\n%s", text)
	}
	if filepath.Dir(qp) != filepath.Join(work, "quarantine") {
		t.Errorf("sink %s not under default quarantine dir", qp)
	}
}

// TestQuarantineErrorBudgetRejectsFile: a file past the budget lands in
// Failed; the rest of the directory still ingests.
func TestQuarantineErrorBudgetRejectsFile(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		// 1 good line, 1 garbage → ratio 0.5, far past the default budget.
		"apache_access.log": goodApacheLine + "\nGARBAGE\n",
		"tomcat_mscope.log": "2017-04-01 00:00:00.010 [exec-1] INFO  mScope - id=req-0000000001 uri=/rubbos/ViewStory ua=1491004812345900 ud=1491004812347000 ds=- dr=-\n",
	})
	db := mscopedb.Open()
	rep, err := IngestDirWithOptions(db, dir, t.TempDir(), DefaultPlan(),
		Options{Policy: Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 {
		t.Fatalf("failed: %+v", rep.Failed)
	}
	if !errors.Is(rep.Failed[0].Err, ErrFileRejected) {
		t.Errorf("rejection does not wrap ErrFileRejected: %v", rep.Failed[0].Err)
	}
	if !strings.Contains(rep.Failed[0].Err.Error(), "error budget") {
		t.Errorf("rejection lacks budget cause: %v", rep.Failed[0].Err)
	}
	// Tomcat still made it into the warehouse.
	if len(rep.Files) != 1 || rep.Files[0].Table != "tomcat_event" {
		t.Errorf("files: %+v", rep.Files)
	}
	if _, err := db.Table("apache_event"); err == nil {
		t.Error("rejected file's table was created anyway")
	}
}

// TestErrorBudgetRange: a budget outside [0, 1] is an error naming it,
// returned before anything is read or loaded; a negative one used to
// reject every clean file, and NaN or one above 1 disabled the check.
func TestErrorBudgetRange(t *testing.T) {
	dir := writeLogDir(t, map[string]string{"apache_access.log": apacheLog(400)})
	for _, tc := range []struct {
		budget float64
		bad    string // text the error must contain; empty means accepted
	}{
		{0, ""},
		{0.05, ""},
		{1, ""},
		{-0.1, "-0.1"},
		{1.5, "1.5"},
		{math.NaN(), "NaN"},
	} {
		db := mscopedb.Open()
		rep, err := IngestDirWithOptions(db, dir, t.TempDir(), DefaultPlan(),
			Options{Policy: Quarantine, ErrorBudget: tc.budget})
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), "error budget "+tc.bad) {
				t.Errorf("budget %v: err = %v, want one naming %s", tc.budget, err, tc.bad)
			}
			if _, err := db.Table("apache_event"); err == nil {
				t.Errorf("budget %v: rejected ingest loaded apache_event", tc.budget)
			}
			continue
		}
		if err != nil {
			t.Errorf("budget %v: %v", tc.budget, err)
			continue
		}
		if len(rep.Failed) != 0 || len(rep.Files) != 1 || rep.Files[0].Entries != 400 {
			t.Errorf("budget %v: clean file not loaded whole: failed %+v, files %+v", tc.budget, rep.Failed, rep.Files)
		}
	}
}

// TestQuarantineEmptyFileRejected: a file where nothing survives is
// rejected per-file, not fatal to the ingest.
func TestQuarantineEmptyFileRejected(t *testing.T) {
	dir := writeLogDir(t, map[string]string{"apache_access.log": ""})
	db := mscopedb.Open()
	rep, err := IngestDirWithOptions(db, dir, t.TempDir(), DefaultPlan(),
		Options{Policy: Quarantine})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || !errors.Is(rep.Failed[0].Err, ErrFileRejected) {
		t.Fatalf("failed: %+v", rep.Failed)
	}
}

// TestFailFastUnchangedByOptions: the zero Options value must reproduce
// historical IngestDir semantics exactly.
func TestFailFastUnchangedByOptions(t *testing.T) {
	dir := writeLogDir(t, map[string]string{
		"apache_access.log": goodApacheLine + "\nGARBAGE LINE\n",
	})
	db := mscopedb.Open()
	_, err := IngestDirWithOptions(db, dir, t.TempDir(), DefaultPlan(), Options{})
	if err == nil {
		t.Fatal("fail-fast accepted a corrupt line")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "apache_access.log") {
		t.Fatalf("fail-fast error shape changed: %v", err)
	}
}

// TestReportSortedDeterministically covers the satellite: report slices
// are explicitly ordered however the ingest interleaved them.
func TestReportSortedDeterministically(t *testing.T) {
	rep := Report{
		Files:   []FileResult{{Input: "b"}, {Input: "a"}},
		Skipped: []string{"z.txt", "a.txt"},
		Failed:  []FileFailure{{Input: "y"}, {Input: "x"}},
	}
	rep.sortDeterministic()
	if rep.Files[0].Input != "a" || rep.Skipped[0] != "a.txt" || rep.Failed[0].Input != "x" {
		t.Errorf("report not sorted: %+v", rep)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", FailFast, true},
		{"fail-fast", FailFast, true},
		{"quarantine", Quarantine, true},
		{"lenient", FailFast, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}
