package transform

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/resources"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden-format inputs and expectations")

// goldenDir holds one committed input file per parser format plus one
// .golden expectation per input: the warehouse-bound table rendered as
// schema + CSV. Any drift in a parser, the converter, or type inference
// fails loudly against the committed bytes.
const goldenDir = "testdata/golden"

// goldenInputs renders each format deterministically off the simulation
// epoch. File names follow the DefaultPlan globs so the test exercises
// binding lookup too.
func goldenInputs() map[string]string {
	ep := simtime.Epoch
	iv := func(i int) resources.Interval {
		return resources.Interval{
			UserPct: 10 + float64(i), SystemPct: 3.5, IOWaitPct: float64(i) / 2, IdlePct: 80 - float64(i),
			DiskReadOpsPS: 1.5, DiskWriteOpsPS: 40 + float64(i),
			DiskReadKBPS: 16, DiskWriteKBPS: 900 + float64(100*i), DiskUtilPct: 25 + float64(i), DiskAvgQueue: 0.4,
			MemFreeKB: 1500000 - float64(1000*i), MemBuffKB: 30000, MemCachedKB: 600000, MemDirtyKB: float64(500 + 250*i),
			NetRxKBPS: 30, NetTxKBPS: 200, RunQueue: 2 + i,
		}
	}

	var apache, tomcat, cjdbc, mysql strings.Builder
	mysql.WriteString(logfmt.MySQLHeader())
	for i := 0; i < 5; i++ {
		ua := ep.Add(time.Duration(i) * 40 * time.Millisecond)
		ud := ua.Add(time.Duration(3+i) * time.Millisecond)
		ds := ua.Add(700 * time.Microsecond)
		dr := ud.Add(-300 * time.Microsecond)
		id := fmt.Sprintf("req-%07d", i)
		uri := fmt.Sprintf("/rubbos/ViewStory?ID=%s", id)
		apache.WriteString(logfmt.ApacheAccess("10.1.0.7", "GET", uri, 200, 17000+i, ua, ud, ds, dr))
		apache.WriteByte('\n')
		tomcat.WriteString(logfmt.TomcatLine(1+i%3, id, uri, ua, ud, ds, dr))
		tomcat.WriteByte('\n')
		cjdbc.WriteString(logfmt.CJDBCLine("rubbos", id, i%2, ua, ud, ds, dr,
			"SELECT * FROM stories WHERE id=?"))
		cjdbc.WriteByte('\n')
		mysql.WriteString(logfmt.MySQLSlowRecord(200+i, ua, ud, 1+i, 30+i,
			"SELECT * FROM stories WHERE id=7", id, i%3))
	}
	// The last apache request makes no downstream call (dash timestamps).
	ua := ep.Add(210 * time.Millisecond)
	apache.WriteString(logfmt.ApacheAccess("10.1.0.9", "GET", "/rubbos/StoriesOfTheDay", 200, 9000,
		ua, ua.Add(2*time.Millisecond), time.Time{}, time.Time{}))
	apache.WriteByte('\n')

	ts := func(i int) time.Time { return ep.Add(time.Duration(i) * 100 * time.Millisecond) }
	var sar, iostat, collectl, collectlCSV, pidstat strings.Builder
	sar.WriteString(logfmt.SARHeader("web", 8, ep) + "\n" + logfmt.SARCPUColumns(ts(0)) + "\n")
	iostat.WriteString(logfmt.IostatHeader("db", 8, ep) + "\n")
	collectl.WriteString(logfmt.CollectlPlainHeader())
	collectlCSV.WriteString(logfmt.CollectlCSVHeader())
	pidstat.WriteString(logfmt.SARHeader("app", 8, ep) + "\n" + logfmt.PidstatColumns(ts(0)) + "\n")
	for i := 0; i < 4; i++ {
		sar.WriteString(logfmt.SARCPURow(ts(i), iv(i)) + "\n")
		iostat.WriteString(logfmt.IostatReport(ts(i), "sda", iv(i)))
		collectl.WriteString(logfmt.CollectlPlainRow(ts(i), iv(i)) + "\n")
		collectlCSV.WriteString(logfmt.CollectlCSVRow(ts(i), iv(i)) + "\n")
		pidstat.WriteString(logfmt.PidstatRow(ts(i), 48, 2817, 40+float64(i), 3.5, 43.5+float64(i), i%8, "java") + "\n")
	}
	sarXML := logfmt.SARXMLOpen("db", 8, ep) +
		logfmt.SARXMLTimestamp(ts(0), iv(0)) +
		logfmt.SARXMLTimestamp(ts(1), iv(1)) +
		logfmt.SARXMLClose()

	// The framework's own telemetry, rendered from fixed records so the
	// emitter grammar (selfobs.FormatLine) and the registered parser are
	// pinned against each other by the same golden bytes.
	var self strings.Builder
	for i := 0; i < 4; i++ {
		self.WriteString(selfobs.FormatLine(ep, "golden-batch", selfobs.Rec{
			Kind: "span", Pipeline: selfobs.PipeIngest, Stage: "chunkparse",
			Span: fmt.Sprintf("s%d", i), File: "apache_access.log",
			StartNS: int64(i) * 2_500_000, DurNS: 1_200_000 + int64(i)*10_000,
			Items: 1500 + int64(i), Errs: int64(i % 2),
		}) + "\n")
	}
	self.WriteString(selfobs.FormatLine(ep, "golden-batch", selfobs.Rec{
		Kind: "span", Pipeline: selfobs.PipeIngest, Stage: "append", Span: "-",
		File: "apache_access.log", StartNS: 11_000_000, DurNS: 400_000, Items: 6004,
	}) + "\n")
	// The live loader's per-batch span: items are rows appended, errs rows
	// degraded or skipped.
	self.WriteString(selfobs.FormatLine(ep, "golden-batch", selfobs.Rec{
		Kind: "span", Pipeline: selfobs.PipeLive, Stage: "append", Span: "batch",
		File: "apache_access.log", StartNS: 11_500_000, DurNS: 150_000, Items: 61, Errs: 3,
	}) + "\n")
	// The source front end's spans as an agent records them (the live
	// pipeline's are the same two under PipeLive): a file's whole parse
	// (records emitted, regions quarantined) and one poll cycle that moved
	// bytes.
	for i, r := range []selfobs.Rec{
		{Stage: "parse", Span: "source", File: "apache_access.log", DurNS: 9_000_000, Items: 6004, Errs: 2},
		{Stage: "tail", Span: "poll", DurNS: 700_000, Items: 65536},
	} {
		r.Kind, r.Pipeline, r.StartNS = "span", selfobs.PipeAgent, 11_550_000+int64(i)*20_000
		self.WriteString(selfobs.FormatLine(ep, "golden-batch", r) + "\n")
	}
	// The read path's spans, one per request, scan or lookup: a served
	// trace (one item, no error), the lookup under it (rows returned) with
	// a segment index it had to build first (rows indexed), a query scan
	// (rows matched) and one of a diagnosis' evidence passes (event rows);
	// then the warehouse's write path: one segment carved (rows sealed) and
	// the commit after it (tail rows written).
	for i, r := range []selfobs.Rec{
		{Pipeline: selfobs.PipeServe, Stage: "trace", Span: "-", DurNS: 1_900_000, Items: 1},
		{Pipeline: selfobs.PipeDB, Stage: "index", Span: "-", File: "cjdbc_event", DurNS: 300_000, Items: 8192},
		{Pipeline: selfobs.PipeDB, Stage: "lookup", Span: "-", File: "cjdbc_event", DurNS: 400_000, Items: 3},
		{Pipeline: selfobs.PipeDB, Stage: "scan", Span: "query", File: "apache_event", DurNS: 650_000, Items: 512},
		{Pipeline: selfobs.PipeDiagnose, Stage: "evidence", Span: "queues", DurNS: 21_000_000, Items: 123900},
		{Pipeline: selfobs.PipeDB, Stage: "seal", Span: "-", File: "apache_event", DurNS: 4_100_000, Items: 8192},
		{Pipeline: selfobs.PipeDB, Stage: "checkpoint", Span: "-", DurNS: 9_500_000, Items: 20411},
	} {
		r.Kind, r.StartNS = "span", 11_600_000+int64(i)*50_000
		self.WriteString(selfobs.FormatLine(ep, "golden-batch", r) + "\n")
	}
	for _, r := range []selfobs.Rec{
		{Pipeline: selfobs.PipeLive, Stage: "watermark", Span: "rows_advanced", Items: 6001},
		{Pipeline: selfobs.PipeDB, Stage: "seal", Span: "segment_bytes", Items: 566_212},
		{Pipeline: selfobs.PipeDB, Stage: "checkpoint", Span: "tail_bytes", Items: 1_961_342},
	} {
		r.Kind, r.StartNS = "counter", 12_000_000
		self.WriteString(selfobs.FormatLine(ep, "golden-batch", r) + "\n")
	}

	return map[string]string{
		"apache_access.log":    apache.String(),
		"tomcat_mscope.log":    tomcat.String(),
		"cjdbc_ctrl.log":       cjdbc.String(),
		"mysql_slow.log":       mysql.String(),
		"web_sar.log":          sar.String(),
		"db_sar.xml":           sarXML,
		"db_iostat.log":        iostat.String(),
		"web_collectl.log":     collectl.String(),
		"db_collectl.csv":      collectlCSV.String(),
		"app_pidstat.log":      pidstat.String(),
		"mscope_selftrace.log": self.String(),
	}
}

// renderExported projects one exported table into the golden text form:
// the table name, the inferred schema, and the CSV rows bound for the
// warehouse.
func renderExported(t *testing.T, workDir, table string) string {
	t.Helper()
	schema, cols, err := xmlcsv.ReadSchema(filepath.Join(workDir, table+".schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "table %s\n", schema.Table)
	for _, c := range cols {
		fmt.Fprintf(&b, "column %s %s\n", c.Name, c.Type)
	}
	b.WriteString("rows\n")
	data, err := os.ReadFile(filepath.Join(workDir, table+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	b.Write(data)
	return b.String()
}

func TestGoldenFormats(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, content := range goldenInputs() {
			if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("read %s (run with -update to generate): %v", goldenDir, err)
	}
	var inputs []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".golden") {
			inputs = append(inputs, e.Name())
		}
	}
	sort.Strings(inputs)
	if len(inputs) != len(goldenInputs()) {
		t.Fatalf("found %d committed inputs, want %d", len(inputs), len(goldenInputs()))
	}

	// One materializing ingest of the whole directory; each input's
	// exported schema and CSV are what the golden pins.
	workDir := t.TempDir()
	rep, err := IngestDirWithOptions(mscopedb.Open(), goldenDir, workDir, DefaultPlan(), Options{Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	for _, fr := range rep.Files {
		tables[filepath.Base(fr.Input)] = fr.Table
	}
	for _, name := range inputs {
		t.Run(name, func(t *testing.T) {
			table, ok := tables[name]
			if !ok {
				t.Fatalf("committed input %s was not ingested (skipped: %v)", name, rep.Skipped)
			}
			got := renderExported(t, workDir, table)
			goldenPath := filepath.Join(goldenDir, name+".golden")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from its golden output.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}
