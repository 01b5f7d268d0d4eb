package transform

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/simtime"
)

// apacheCorpus renders count access-log lines; every corruptEvery-th line
// (when >0) is replaced with garbage the token pattern rejects.
func apacheCorpus(count, corruptEvery int) []byte {
	var b strings.Builder
	for i := 0; i < count; i++ {
		if corruptEvery > 0 && i%corruptEvery == corruptEvery-1 {
			fmt.Fprintf(&b, "!! torn line %d ¡garbage¿\n", i)
			continue
		}
		ua := simtime.Epoch.Add(time.Duration(i) * 3 * time.Millisecond)
		ud := ua.Add(time.Duration(i%7+1) * time.Millisecond)
		ds := ua.Add(500 * time.Microsecond)
		b.WriteString(logfmt.ApacheAccess("10.0.0.2", "GET", fmt.Sprintf("/item/%d?rid=req-%d", i, i), 200, 1000+i, ua, ud, ds, ud))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// mysqlCorpus renders the slow-log preamble plus count records. Corruption
// alternates between garbage inside a record and a record-opening
// "# Time:" line whose timestamp cannot decode (a semantic failure with no
// line number).
func mysqlCorpus(count, corruptEvery int) []byte {
	var b strings.Builder
	b.WriteString(logfmt.MySQLHeader())
	for i := 0; i < count; i++ {
		ua := simtime.Epoch.Add(time.Duration(i) * 5 * time.Millisecond)
		ud := ua.Add(time.Duration(i%5+1) * time.Millisecond)
		rec := logfmt.MySQLSlowRecord(100+i, ua, ud, 3, 40,
			"SELECT * FROM items WHERE id=7", fmt.Sprintf("req-%d", i), i%4)
		if corruptEvery > 0 && i%corruptEvery == corruptEvery-1 {
			if i%2 == 0 {
				// Garbage line torn into the middle of the record.
				lines := strings.SplitAfter(rec, "\n")
				rec = strings.Join(lines[:2], "") + "@@corrupted@@\n" + strings.Join(lines[2:], "")
			} else {
				// A record-boundary lookalike that fails semantically.
				rec = "# Time: not-a-timestamp\n" + rec[strings.Index(rec, "\n")+1:]
			}
		}
		b.WriteString(rec)
	}
	return []byte(b.String())
}

// writeSyntheticDir stages a small log directory covering a single-line
// format (token), a multi-line one (mysql-slow), an unbound artifact, and —
// when corrupt — damage in each format.
func writeSyntheticDir(t *testing.T, corrupt bool) string {
	t.Helper()
	dir := t.TempDir()
	apacheEvery, mysqlEvery := 0, 0
	if corrupt {
		apacheEvery, mysqlEvery = 9, 6
	}
	files := map[string][]byte{
		"apache_access.log": apacheCorpus(400, apacheEvery),
		"web2_access.log":   apacheCorpus(90, apacheEvery),
		"mysql_slow.log":    mysqlCorpus(160, mysqlEvery),
		"notes.txt":         []byte("operator scratch file\n"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readDirContents maps file name → content for a quarantine directory;
// a missing directory is the empty map (nothing was quarantined).
func readDirContents(t *testing.T, dir string) map[string]string {
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

// normalizeReport clears the fields that legitimately differ between the
// two runs (the quarantine sinks live in per-run directories) and renders
// failures comparably.
func normalizeReport(rep Report) Report {
	for i := range rep.Files {
		if rep.Files[i].QuarantinePath != "" {
			rep.Files[i].QuarantinePath = filepath.Base(rep.Files[i].QuarantinePath)
		}
	}
	return rep
}

func reportsEqual(t *testing.T, serial, parallel Report) {
	t.Helper()
	s, p := normalizeReport(serial), normalizeReport(parallel)
	if fmt.Sprintf("%+v", s.Files) != fmt.Sprintf("%+v", p.Files) {
		t.Errorf("Files differ:\nserial   %+v\nparallel %+v", s.Files, p.Files)
	}
	if fmt.Sprintf("%v", s.Skipped) != fmt.Sprintf("%v", p.Skipped) ||
		fmt.Sprintf("%v", s.Unchanged) != fmt.Sprintf("%v", p.Unchanged) {
		t.Errorf("Skipped/Unchanged differ: serial %v/%v parallel %v/%v",
			s.Skipped, s.Unchanged, p.Skipped, p.Unchanged)
	}
	if len(s.Failed) != len(p.Failed) {
		t.Fatalf("Failed counts differ: serial %d parallel %d", len(s.Failed), len(p.Failed))
	}
	for i := range s.Failed {
		if s.Failed[i].Input != p.Failed[i].Input || s.Failed[i].Err.Error() != p.Failed[i].Err.Error() {
			t.Errorf("Failed[%d] differs:\nserial   %s: %v\nparallel %s: %v",
				i, s.Failed[i].Input, s.Failed[i].Err, p.Failed[i].Input, p.Failed[i].Err)
		}
	}
}

// TestIngestLedgerEquivalence drives the restart-resume paths: an
// unchanged re-ingest must skip every file, and a grown file must be
// rebuilt — identically at one worker and at four, with identical ledger
// offsets.
func TestIngestLedgerEquivalence(t *testing.T) {
	logDir := writeSyntheticDir(t, false)
	workDir := t.TempDir()
	run := func(workers int) (*mscopedb.DB, []Report) {
		db := mscopedb.Open()
		var reps []Report
		opts := Options{Workers: workers}
		rep, err := IngestDirWithOptions(db, logDir, workDir, DefaultPlan(), opts)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		// Second pass: everything unchanged.
		rep, err = IngestDirWithOptions(db, logDir, workDir, DefaultPlan(), opts)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		return db, reps
	}

	dbS, repsS := run(1)
	dbP, repsP := run(4)
	for i := range repsS {
		reportsEqual(t, repsS[i], repsP[i])
	}
	if n := len(repsP[1].Unchanged); n != 3 {
		t.Fatalf("second parallel pass skipped %d files, want 3", n)
	}
	for _, name := range []string{"apache_access.log", "mysql_slow.log"} {
		full := filepath.Join(logDir, name)
		offS, okS := dbS.LatestIngestOffset(full)
		offP, okP := dbP.LatestIngestOffset(full)
		if !okS || !okP || offS != offP {
			t.Fatalf("ledger offsets for %s differ: serial %d/%v parallel %d/%v", name, offS, okS, offP, okP)
		}
	}
	dbtest.Same(t, "after re-ingest", dbtest.Dump(t, dbS), dbtest.Dump(t, dbP))

	// Grow one source file; both runs must drop and rebuild its table.
	f, err := os.OpenFile(filepath.Join(logDir, "mysql_slow.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	extra := string(mysqlCorpus(10, 0))
	// Strip the preamble the corpus helper repeats; appended logs carry
	// records only.
	if _, err := f.WriteString(extra[strings.Index(extra, "# Time:"):]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	repS2, errS := IngestDirWithOptions(dbS, logDir, workDir, DefaultPlan(), Options{Workers: 1})
	repP2, errP := IngestDirWithOptions(dbP, logDir, workDir, DefaultPlan(), Options{Workers: 4})
	if errS != nil || errP != nil {
		t.Fatalf("rebuild ingests failed: serial %v parallel %v", errS, errP)
	}
	reportsEqual(t, repS2, repP2)
	if len(repS2.Files) != 1 || repS2.Files[0].Table != "mysql_event" {
		t.Fatalf("expected only mysql_event rebuilt, got %+v", repS2.Files)
	}
	dbtest.Same(t, "after rebuild", dbtest.Dump(t, dbS), dbtest.Dump(t, dbP))
}

// TestQuarantineSinkConcurrentRecord hammers one sink from many
// goroutines under -race: the count must be exact and every record whole.
func TestQuarantineSinkConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	sink := &quarantineSink{dir: dir, base: "hammer.log"}
	const workers, perWorker = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := parsers.Malformed{
					Line: w*perWorker + i + 1,
					Text: fmt.Sprintf("worker %d line %d", w, i),
					Err:  fmt.Errorf("synthetic damage %d/%d", w, i),
				}
				if err := sink.record(m); err != nil {
					t.Errorf("record: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sink.close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != workers*perWorker {
		t.Fatalf("sink counted %d regions, want %d", got, workers*perWorker)
	}
	data, err := os.ReadFile(sink.path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2*workers*perWorker {
		t.Fatalf("sink holds %d lines, want %d", len(lines), 2*workers*perWorker)
	}
	// Records must be whole: comment line and payload line alternate.
	for i := 0; i < len(lines); i += 2 {
		if !strings.HasPrefix(lines[i], "# hammer.log:") {
			t.Fatalf("line %d is not a located comment: %q", i, lines[i])
		}
		if !strings.HasPrefix(lines[i+1], "worker ") {
			t.Fatalf("line %d is not a payload: %q", i+1, lines[i+1])
		}
	}
}

// TestLedgerOneRowPerFile: the ingest ledger holds exactly one row per
// loaded source file — its own path, table, rows and consumed size — and
// nothing for the staged artifacts --materialize exports.
func TestLedgerOneRowPerFile(t *testing.T) {
	logDir := writeSyntheticDir(t, false)
	for _, materialize := range []bool{false, true} {
		db := mscopedb.Open()
		rep, err := IngestDirWithOptions(db, logDir, t.TempDir(), DefaultPlan(), Options{Materialize: materialize})
		if err != nil {
			t.Fatal(err)
		}
		ledger, err := db.Table(mscopedb.TableIngests)
		if err != nil {
			t.Fatal(err)
		}
		if ledger.Rows() != len(rep.Files) || len(rep.Files) != 3 {
			t.Fatalf("materialize=%v: %d ledger rows for %d files, want 3 each", materialize, ledger.Rows(), len(rep.Files))
		}
		for i, f := range rep.Files {
			info, err := os.Stat(f.Input)
			if err != nil {
				t.Fatal(err)
			}
			var got []any
			for _, col := range []string{"tbl", "file", "rows", "offset"} {
				got = append(got, ledger.Value(ledger.ColIndex(col), i))
			}
			want := []any{f.Table, f.Input, int64(f.Entries), info.Size()}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("materialize=%v: ledger row %d = %v, want %v", materialize, i, got, want)
			}
		}
	}
}
