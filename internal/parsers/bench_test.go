package parsers

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/resources"
)

// benchRecords is the record count per synthetic input; large enough that
// per-file setup (header parsing, reader allocation) amortizes out of the
// per-line figures.
const benchRecords = 256

type benchFormat struct {
	name   string
	parser string
	instr  Instructions
	input  string
}

// benchFormats builds one synthetic input per DefaultPlan format, using
// the same logfmt generators the trial runner and the conformance tests
// use, so the measured lines are the real grammar.
func benchFormats() []benchFormat {
	base := time.Date(2017, 4, 1, 0, 0, 12, 345678000, time.UTC)
	iv := resources.Interval{
		UserPct: 12.34, SystemPct: 3.21, IOWaitPct: 1.05, IdlePct: 83.40,
		DiskReadKBPS: 8, DiskWriteKBPS: 1024, DiskReadOpsPS: 1, DiskWriteOpsPS: 45,
		DiskUtilPct: 29.4, DiskAvgQueue: 0.12, RunQueue: 5,
		MemFreeKB: 123456, MemBuffKB: 1000, MemCachedKB: 5000, MemDirtyKB: 789,
		NetRxKBPS: 10, NetTxKBPS: 20,
	}
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 3 * time.Millisecond) }

	var apache, tomcat, cjdbc, mysql, sar, sarxml, iostat, collectl, collectlCSV, pidstat, selftrace strings.Builder
	sar.WriteString(logfmt.SARHeader("apache", 8, base) + "\n" + logfmt.SARCPUColumns(base) + "\n")
	sarxml.WriteString(logfmt.SARXMLOpen("tomcat", 8, base))
	iostat.WriteString(logfmt.IostatHeader("mysql", 8, base) + "\n")
	mysql.WriteString(logfmt.MySQLHeader())
	collectl.WriteString(logfmt.CollectlPlainHeader())
	collectlCSV.WriteString(logfmt.CollectlCSVHeader())
	pidstat.WriteString(logfmt.SARHeader("tomcat", 8, base) + "\n" + logfmt.PidstatColumns(base) + "\n")
	for i := 0; i < benchRecords; i++ {
		ua, ud := at(i), at(i).Add(time.Duration(i%7+1)*time.Millisecond)
		ds, dr := ua.Add(500*time.Microsecond), ud.Add(-200*time.Microsecond)
		id := fmt.Sprintf("req-%07d", i)
		uri := fmt.Sprintf("/rubbos/Story?ID=%s&page=%d", id, i%9)
		apache.WriteString(logfmt.ApacheAccess("10.0.0.9", "GET", uri, 200, 1000+i, ua, ud, ds, dr) + "\n")
		tomcat.WriteString(logfmt.TomcatLine(i%16, id, uri, ua, ud, ds, dr) + "\n")
		cjdbc.WriteString(logfmt.CJDBCLine("rubbos", id, i%3, ua, ud, ds, dr,
			"SELECT id,title FROM stories WHERE id=?") + "\n")
		mysql.WriteString(logfmt.MySQLSlowRecord(40+i%8, ua, ud, 3, 100+i,
			"SELECT id,title FROM stories WHERE id=?", id, i%3))
		sar.WriteString(logfmt.SARCPURow(ua, iv) + "\n")
		sarxml.WriteString(logfmt.SARXMLTimestamp(ua, iv))
		iostat.WriteString(logfmt.IostatReport(ua, "sda", iv))
		collectl.WriteString(logfmt.CollectlPlainRow(ua, iv) + "\n")
		collectlCSV.WriteString(logfmt.CollectlCSVRow(ua, iv) + "\n")
		pidstat.WriteString(logfmt.PidstatRow(ua, 48, 2817, 42.5, 3.2, 45.7, i%8, "java") + "\n")
		selftrace.WriteString(fmt.Sprintf(
			"%s mscope-self kind=span batch=b1 pipeline=ingest stage=parse span=chunkparse file=apache_access.log dur_us=%d items=%d errs=0\n",
			ua.Format(time.RFC3339Nano), 900+i, i))
	}
	sarxml.WriteString(logfmt.SARXMLClose())

	return []benchFormat{
		{"apache_access", "token", ApacheInstructions(), apache.String()},
		{"tomcat_mscope", "token", TomcatInstructions(), tomcat.String()},
		{"cjdbc_ctrl", "token", CJDBCInstructions(), cjdbc.String()},
		{"mysql_slow", "mysql-slow", Instructions{}, mysql.String()},
		{"sar", "sar", Instructions{}, sar.String()},
		{"sar_xml", "sar-xml", Instructions{}, sarxml.String()},
		{"iostat", "iostat", Instructions{}, iostat.String()},
		{"collectl", "collectl", Instructions{Const: map[string]string{"date": "2017-04-01"}}, collectl.String()},
		{"collectl_csv", "collectl-csv", Instructions{}, collectlCSV.String()},
		{"pidstat", "pidstat", Instructions{}, pidstat.String()},
		{"selftrace", "selftrace", Instructions{}, selftrace.String()},
	}
}

// BenchmarkParseLine measures every DefaultPlan format through its real
// parser, reporting per-input-line cost. The emit sink releases entries
// like the batch ingest does, so the field pool is in play exactly as in
// production. bench/ reports the same cost as parsers.<format>_ns_per_line.
func BenchmarkParseLine(b *testing.B) {
	for _, f := range benchFormats() {
		f := f
		b.Run(f.name, func(b *testing.B) {
			p, err := Get(f.parser)
			if err != nil {
				b.Fatal(err)
			}
			emit := func(e mxml.Entry) error { e.Release(); return nil }
			lines := strings.Count(f.input, "\n")
			b.SetBytes(int64(len(f.input)))
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Parse(strings.NewReader(f.input), f.instr, emit); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			per := float64(b.N) * float64(lines)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/line")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/per, "B/line")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/per, "allocs/line")
		})
	}
}

// TestParseAllocsPerLine is the allocation gate of the record path: a parse
// into a sink that keeps nothing allocates per file, not per line (at most
// 0.1 mallocs a line over a 256-record input, where building an entry a
// record cost 1.8 to 10.3), and the Emit adapter adds one string a record.
func TestParseAllocsPerLine(t *testing.T) {
	for _, f := range benchFormats() {
		p, err := Get(f.parser)
		if err != nil {
			t.Fatal(err)
		}
		lines := float64(strings.Count(f.input, "\n"))
		mallocs := func(parse func() error) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := parse(); err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
			})
		}
		perLine := mallocs(func() error {
			return p.ParseRecords(strings.NewReader(f.input), f.instr, func(*Record) error { return nil }, nil)
		}) / lines
		perRecord := mallocs(func() error {
			return p.Parse(strings.NewReader(f.input), f.instr, func(e mxml.Entry) error { e.Release(); return nil })
		}) / benchRecords
		t.Logf("%-14s %.3f mallocs a line into a record sink, %.3f a record through Emit", f.name, perLine, perRecord)
		if perLine > 0.1 {
			t.Errorf("%s: %.3f mallocs a line into a discarding record sink, want at most 0.1", f.name, perLine)
		}
		if perRecord > 1.1 && !raceEnabled { // the entry pool is lossy under the race detector
			t.Errorf("%s: %.3f mallocs a record through the Emit adapter, want at most 1.1", f.name, perRecord)
		}
	}
}
