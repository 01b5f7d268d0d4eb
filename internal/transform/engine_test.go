package transform

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mscopedb/dbtest"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// writeNastyDir stages bytes that make the XML and CSV round trips of the
// exported artifacts non-trivial: invalid UTF-8, XML-illegal control
// characters, and multi-byte runes inside URL fields. What the engine
// loads must equal what re-reading its export gives.
func writeNastyDir(t *testing.T) string {
	t.Helper()
	nasty := []string{
		"/p\x80q",            // lone continuation byte
		"/a\xff\xfeb",        // invalid lead bytes
		"/bell\x01end",       // XML-illegal control char
		"/del\x7fok",         // legal control-adjacent byte
		"/caf\xc3\xa9/日",     // valid multi-byte runes
		"/truncated\xe6\x97", // truncated multi-byte rune
	}
	var b strings.Builder
	for i, u := range nasty {
		ua := simtime.Epoch.Add(time.Duration(i) * 3 * time.Millisecond)
		ud := ua.Add(time.Duration(i+1) * time.Millisecond)
		ds := ua.Add(500 * time.Microsecond)
		b.WriteString(logfmt.ApacheAccess("10.0.0.9", "GET", u, 200, 1000+i, ua, ud, ds, ud))
		b.WriteByte('\n')
	}
	return writeLogDir(t, map[string]string{"nasty_access.log": b.String()})
}

// engineRun is one IngestDirWithOptions into a fresh warehouse.
type engineRun struct {
	db    *mscopedb.DB
	rep   Report
	err   error
	sinks map[string]string
}

func runEngine(t *testing.T, logDir, workDir string, plan *Plan, opts Options) engineRun {
	t.Helper()
	opts.QuarantineDir = filepath.Join(t.TempDir(), "q")
	r := engineRun{db: mscopedb.Open()}
	r.rep, r.err = IngestDirWithOptions(r.db, logDir, workDir, plan, opts)
	r.sinks = readDirContents(t, opts.QuarantineDir)
	return r
}

// assertRunsEqual is half (a) of the suite: error, report, quarantine
// sinks, ledger offsets and the byte-exact warehouse dump do not depend on
// the worker count (or on whether the artifacts were exported).
func assertRunsEqual(t *testing.T, logDir string, want, got engineRun) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) || (want.err != nil && want.err.Error() != got.err.Error()) {
		t.Fatalf("ingest errors differ:\nwant %v\ngot  %v", want.err, got.err)
	}
	reportsEqual(t, want.rep, got.rep)
	if fmt.Sprintf("%v", want.sinks) != fmt.Sprintf("%v", got.sinks) {
		t.Errorf("quarantine sinks differ:\nwant %v\ngot  %v", want.sinks, got.sinks)
	}
	names, err := os.ReadDir(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		full := filepath.Join(logDir, e.Name())
		offW, okW := want.db.LatestIngestOffset(full)
		offG, okG := got.db.LatestIngestOffset(full)
		if offW != offG || okW != okG {
			t.Errorf("ledger offset for %s: want %d/%v got %d/%v", e.Name(), offW, okW, offG, okG)
		}
	}
	dbtest.Same(t, "warehouse", dbtest.Dump(t, want.db), dbtest.Dump(t, got.db))
}

// assertSameBytes fails unless the exported artifact equals its reference.
func assertSameBytes(t *testing.T, exported, reference string) {
	t.Helper()
	got, err := os.ReadFile(exported)
	if err != nil {
		t.Fatalf("exported artifact missing: %v", err)
	}
	want, err := os.ReadFile(reference)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from reference %s (%d vs %d bytes)", exported, reference, len(got), len(want))
	}
}

// assertExportReloads is half (b): the reader half of §III-B is the
// oracle. Every file the engine loaded exported an annotated-XML document;
// xmlcsv.ConvertFile over it must rewrite the exported CSV and schema byte
// for byte, and xmlcsv.LoadFile of those must give the table the engine
// installed, cell for cell.
func assertExportReloads(t *testing.T, workDir string, r engineRun) {
	t.Helper()
	oracleDir := t.TempDir()
	for _, fr := range r.rep.Files {
		if fr.MXMLPath == "" {
			t.Fatalf("%s: materialized run exported no document", fr.Input)
		}
		conv, err := xmlcsv.ConvertFile(fr.MXMLPath, oracleDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{
			{filepath.Join(workDir, fr.Table+".csv"), conv.CSVPath},
			{filepath.Join(workDir, fr.Table+".schema.json"), conv.SchemaPath},
		} {
			assertSameBytes(t, pair[0], pair[1])
		}
		tbl, err := r.db.Table(fr.Table)
		if err != nil {
			// A later fail-fast abort can leave an accepted file unloaded.
			continue
		}
		ref, err := xmlcsv.LoadFile(conv.CSVPath, conv.SchemaPath)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tbl.Columns()) != fmt.Sprint(ref.Columns()) || tbl.Rows() != ref.Rows() {
			t.Fatalf("%s: engine %v x %d rows, oracle %v x %d rows",
				fr.Table, tbl.Columns(), tbl.Rows(), ref.Columns(), ref.Rows())
		}
		for c := range tbl.Columns() {
			for row := 0; row < tbl.Rows(); row++ {
				if g, w := tbl.Value(c, row), ref.Value(c, row); g != w {
					t.Fatalf("%s[%d][%d]: engine %v, oracle %v", fr.Table, row, c, g, w)
				}
			}
		}
	}
}

// adversarialPlan and writeAdversarialDir stage one log that takes schema
// inference everywhere whole-file inference is easy and typing cells as they
// arrive is not: columns that are ints, then floats, then strings — at the
// second row, mid-file and at the last row — with the numbers whose text
// their value does not give back (+1, 007, -0, 1e3, 1_000, NaN,
// 9223372036854775808) in front of the cell that degrades them (0x10: a hex
// float needs an exponent, so it is no number at all); a column of those
// that stays float; unhinted times in every spelling the layout accepts
// ahead of an int; a hinted time field that a Const of the same name
// follows with an int in every record; a column empty for 9,000 rows; a
// field only the last record has; and a derived duplicate of a field whose
// own, earlier value alone makes the column a string.
func adversarialPlan() *Plan {
	return &Plan{Bindings: []Binding{{Glob: "*_adv.log", Parser: "token", Source: "adversarial", TableSuffix: "adv",
		Instructions: parsers.Instructions{
			Pattern: `^(?P<early>\S+) (?P<mid>\S+) (?P<last>\S+) (?P<f>\S+) (?P<tcol>\S+) (?P<h>\S+) (?P<hm>\S+) (?P<sparse>\S*) (?P<dup>\S+) (?P<rest>.*)$`,
			Derive: []parsers.DeriveRule{
				{Field: "rest", Pattern: `dup=(?P<dup>\S+)`, Optional: true},
				{Field: "rest", Pattern: `late=(?P<late>\S+)`, Optional: true},
			},
			Times: []parsers.TimeRule{{Field: "h", Layout: time.RFC3339Nano}, {Field: "hm", Layout: time.RFC3339Nano}},
			Const: map[string]string{"hm": "7"},
		}}}}
}

func writeAdversarialDir(t *testing.T) string {
	t.Helper()
	rows := 10_000
	if testing.Short() {
		rows = 1_000 // the full log takes half a minute under the race detector
	}
	ints := []string{"+1", "007", "-0", "12"}
	floats := []string{"1e3", "1_000", "0x1p4", "9223372036854775808", "NaN"}
	numbers := append(append([]string(nil), ints...), floats[:4]...) // NaN != NaN, cell by cell
	times := []string{"2017-04-01T00:00:12Z", "2017-04-01T00:00:12.5Z", "2017-04-01T00:00:12.500Z",
		"2017-04-01T5:04:05Z", "2017-04-01T00:00:12+00:00", "2017-04-01T00:00:12.1234567Z"}
	// walk is a column's cell at row i when it turns float at row float and
	// string at row str.
	walk := func(i, float, str int) string {
		switch {
		case i == str:
			return "0x10"
		case i > str:
			return "after"
		case i >= float:
			return floats[i%5]
		}
		return ints[i%4]
	}
	var b strings.Builder
	for i := 0; i < rows; i++ {
		tcol, sparse, dup, rest := times[i%len(times)], "", strconv.Itoa(i), "-"
		if i == rows/2 {
			tcol = "12"
		}
		if i >= rows*9/10 {
			sparse = strconv.Itoa(i)
		}
		if i%100 == 99 {
			dup, rest = "x", "dup=5"
		}
		if i == rows-1 {
			rest = "late=1e3"
		}
		stamp := simtime.Epoch.Add(time.Duration(i) * time.Millisecond).Format(time.RFC3339Nano)
		fmt.Fprintf(&b, "%s %s %s %s %s %s %s %s %s %s\n", walk(i, 1, 2), walk(i, rows/2, rows/2+rows/10),
			walk(i, rows-2, rows-1), numbers[i%8], tcol, stamp, stamp, sparse, dup, rest)
	}
	return writeLogDir(t, map[string]string{"trial_adv.log": b.String()})
}

// TestEngineMatchesOracle is the one equivalence suite of the batch
// ingest: each case runs with one worker as the reference, with two, four
// and eight, and again with the staged artifacts exported, which are then
// re-loaded through the independent reader half.
func TestEngineMatchesOracle(t *testing.T) {
	abortDir := writeLogDir(t, map[string]string{
		// The first file loads; the second aborts a fail-fast ingest and
		// leaves a partial warehouse behind.
		"apache_access.log": string(apacheCorpus(120, 0)),
		"mysql_slow.log":    string(mysqlCorpus(60, 6)),
	})
	cases := []struct {
		name   string
		logDir string
		plan   *Plan
		budget float64
	}{
		{"clean", writeSyntheticDir(t, false), DefaultPlan(), 0},
		{"corrupted", writeSyntheticDir(t, true), DefaultPlan(), 0.5},
		{"nasty-bytes", writeNastyDir(t), DefaultPlan(), 0},
		{"tight-budget", writeSyntheticDir(t, true), DefaultPlan(), 0.01},
		{"fail-fast-abort", abortDir, DefaultPlan(), 0.5},
		{"adversarial-typing", writeAdversarialDir(t), adversarialPlan(), 0},
	}
	for _, tc := range cases {
		for _, policy := range []Policy{FailFast, Quarantine} {
			t.Run(tc.name+"/"+policy.String(), func(t *testing.T) {
				// One work dir: ledger rows embed artifact paths under it.
				workDir := t.TempDir()
				base := Options{Policy: policy, ErrorBudget: tc.budget}
				one, four := base, base
				one.Workers, four.Workers = 1, 4

				ref := runEngine(t, tc.logDir, workDir, tc.plan, one)
				for _, workers := range []int{2, 4, 8} {
					many := base
					many.Workers = workers
					assertRunsEqual(t, tc.logDir, ref, runEngine(t, tc.logDir, workDir, tc.plan, many))
				}
				for _, o := range []Options{one, four} {
					o.Materialize = true
					exp := runEngine(t, tc.logDir, workDir, tc.plan, o)
					for i := range exp.rep.Files {
						if want := filepath.Join(workDir, exp.rep.Files[i].Table+".mxml"); exp.rep.Files[i].MXMLPath != want {
							t.Errorf("exported document at %q, want %q", exp.rep.Files[i].MXMLPath, want)
						}
					}
					assertExportReloads(t, workDir, exp)
					for i := range exp.rep.Files {
						exp.rep.Files[i].MXMLPath = "" // only an exporting run reports one
					}
					assertRunsEqual(t, tc.logDir, ref, exp)
				}
			})
		}
	}
}

// referenceMXML is the writer half of the staged pipeline as the seed ran
// it — the bound parser emitting straight into an mxml.Writer — kept as
// the oracle for the exported document's bytes.
func referenceMXML(t *testing.T, path string, b Binding, dir string) string {
	t.Helper()
	p, err := parsers.Get(b.Parser)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	host := HostOf(path, b)
	out := filepath.Join(dir, host+"_"+b.TableSuffix+".mxml")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := mxml.NewWriter(f)
	if err := w.Open(mxml.Meta{Source: b.Source, Host: host, Table: host + "_" + b.TableSuffix}); err != nil {
		t.Fatal(err)
	}
	if err := p.Parse(in, b.Instructions, w.WriteEntry); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMaterializeArtifactsGolden pins --materialize to the staged
// pipeline's outputs: the XML, CSV and schema artifacts the engine exports
// must be byte-identical to what the parser writing an mxml document and
// ConvertFile reading it produce for the same inputs — on the synthetic
// directory (one worker and four) and on every committed golden input.
func TestMaterializeArtifactsGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		logDir string
		opts   Options
	}{
		{"synthetic", writeSyntheticDir(t, false), Options{Materialize: true}},
		{"synthetic-w4", writeSyntheticDir(t, false), Options{Materialize: true, Workers: 4}},
		{"golden-inputs", goldenDir, Options{Materialize: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ingWork := t.TempDir()
			rep, err := IngestDirWithOptions(mscopedb.Open(), tc.logDir, ingWork, DefaultPlan(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Files) == 0 {
				t.Fatal("materialized ingest transformed nothing")
			}
			refWork := t.TempDir()
			for _, fr := range rep.Files {
				b, ok := DefaultPlan().Find(fr.Input)
				if !ok {
					t.Fatalf("no binding for %s", fr.Input)
				}
				refMXML := referenceMXML(t, fr.Input, b, refWork)
				conv, err := xmlcsv.ConvertFile(refMXML, refWork)
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range [][2]string{
					{fr.MXMLPath, refMXML},
					{filepath.Join(ingWork, fr.Table+".csv"), conv.CSVPath},
					{filepath.Join(ingWork, fr.Table+".schema.json"), conv.SchemaPath},
				} {
					assertSameBytes(t, pair[0], pair[1])
				}
			}
		})
	}
}

// TestWorkersStartFilesInSortedOrder: the workers take files in sorted-name
// order, the order the sequencer installs them in, so it never waits on a
// file that has not been started while later ones hold the workers. When
// the file at sorted index i starts, the i before it have all been taken and
// at most workers-1 of those have yet to start.
func TestWorkersStartFilesInSortedOrder(t *testing.T) {
	const workers = 2
	corpus := string(apacheCorpus(300, 0))
	files := map[string]string{}
	var names []string // sorted
	for i := range 8 {
		names = append(names, fmt.Sprintf("n%d_access.log", i))
		files[names[i]] = corpus
	}
	c := selfobs.Enable("start-order", time.Unix(0, 0).UTC())
	defer selfobs.Disable()
	_, err := IngestDirWithOptions(mscopedb.Open(), writeLogDir(t, files), t.TempDir(), DefaultPlan(), Options{Workers: workers})
	selfobs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	var parses []selfobs.Rec
	for _, r := range c.Snapshot() {
		if r.Pipeline == selfobs.PipeIngest && r.Stage == "parse" && r.Span == "whole" {
			parses = append(parses, r)
		}
	}
	if len(parses) != len(names) {
		t.Fatalf("%d parse spans for %d files", len(parses), len(names))
	}
	sort.Slice(parses, func(a, b int) bool { return parses[a].StartNS < parses[b].StartNS })
	for pos, r := range parses {
		if i := slices.Index(names, r.File); i > pos+workers-1 {
			t.Errorf("%s (sorted index %d) was parse number %d to start", r.File, i, pos)
		}
	}
}

// TestStoreIngestSameFilesAtEveryWorkerCount: after its Checkpoint, a
// store-backed ingest leaves the same directory — segment files, tail file
// and MANIFEST.json, name for name and byte for byte — at one, two and four
// workers and at the zero value, one per CPU.
func TestStoreIngestSameFilesAtEveryWorkerCount(t *testing.T) {
	logDir, workDir := writeSyntheticDir(t, true), t.TempDir()
	var want map[string]string
	for _, workers := range []int{1, 2, 4, 0} {
		dir := t.TempDir()
		db, err := mscopedb.OpenDir(dir, mscopedb.StoreOptions{SealRows: 64})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Policy: Quarantine, ErrorBudget: 0.5, Workers: workers,
			QuarantineDir: filepath.Join(t.TempDir(), "q")}
		if _, err := IngestDirWithOptions(db, logDir, workDir, DefaultPlan(), opts); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		got := readDirContents(t, dir)
		if want == nil {
			segs := 0
			for name := range got {
				if strings.HasPrefix(name, "seg-") {
					segs++
				}
			}
			if segs < 2 || len(got) < segs+2 {
				t.Fatalf("one worker left %d files, %d of them segments; want segments, a tail and a manifest", len(got), segs)
			}
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Errorf("workers=%d: %d files, want %d", workers, len(got), len(want))
		}
		for name, data := range want {
			if got[name] != data {
				t.Errorf("workers=%d: %s differs from the one-worker ingest's", workers, name)
			}
		}
	}
}
