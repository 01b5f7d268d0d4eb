package parsers

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/logfmt"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/resources"
)

func collect(t *testing.T, p Parser, input string, instr Instructions) []mxml.Entry {
	t.Helper()
	var out []mxml.Entry
	err := p.Parse(strings.NewReader(input), instr, func(e mxml.Entry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return out
}

func get(t *testing.T, e mxml.Entry, name string) string {
	t.Helper()
	v, ok := e.Get(name)
	if !ok {
		t.Fatalf("field %q absent in %+v", name, e)
	}
	return v
}

func TestGetRegistry(t *testing.T) {
	for _, r := range registry {
		name := r.Name()
		p, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("parser %s reports name %s", name, p.Name())
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown parser accepted")
	}
}

func TestTokenParser(t *testing.T) {
	input := "alpha 1\nbeta 2\n\ngamma 3\n"
	instr := Instructions{
		Pattern: `^(?P<name>\w+) (?P<n>\d+)$`,
		Const:   map[string]string{"host": "web1"},
	}
	entries := collect(t, tokenParser, input, instr)
	if len(entries) != 3 {
		t.Fatalf("%d entries", len(entries))
	}
	if get(t, entries[1], "name") != "beta" || get(t, entries[1], "n") != "2" {
		t.Fatalf("entry 1 wrong: %+v", entries[1])
	}
	if get(t, entries[0], "host") != "web1" {
		t.Fatal("const field missing")
	}
}

func TestTokenParserUnmatched(t *testing.T) {
	instr := Instructions{Pattern: `^(?P<n>\d+)$`}
	err := tokenParser.Parse(strings.NewReader("12\nxx\n"), instr, func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("unmatched line accepted without SkipUnmatched")
	}
	instr.SkipUnmatched = true
	entries := collect(t, tokenParser, "12\nxx\n34\n", instr)
	if len(entries) != 2 {
		t.Fatalf("%d entries with SkipUnmatched", len(entries))
	}
}

func TestTokenParserHeaderLines(t *testing.T) {
	instr := Instructions{Pattern: `^(?P<n>\d+)$`, HeaderLines: 2}
	entries := collect(t, tokenParser, "header\nanother\n42\n", instr)
	if len(entries) != 1 || get(t, entries[0], "n") != "42" {
		t.Fatalf("header skipping broken: %+v", entries)
	}
}

func TestTokenParserDerive(t *testing.T) {
	instr := Instructions{
		Pattern: `^(?P<uri>\S+)$`,
		Derive: []DeriveRule{
			{Field: "uri", Pattern: `ID=(?P<reqid>req-\d+)`},
		},
	}
	entries := collect(t, tokenParser, "/x?ID=req-0000000007\n", instr)
	if get(t, entries[0], "reqid") != "req-0000000007" {
		t.Fatalf("derive failed: %+v", entries[0])
	}
	// Non-optional derive failure is an error.
	err := tokenParser.Parse(strings.NewReader("/no-id\n"), instr, func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("failed derive accepted")
	}
}

func TestTokenParserTimeNormalization(t *testing.T) {
	instr := Instructions{
		Pattern: `^(?P<when>.+)\|(?P<v>\d+)$`,
		Times:   []TimeRule{{Field: "when", Layout: "02/Jan/2006:15:04:05.000 -0700"}},
	}
	entries := collect(t, tokenParser, "01/Apr/2017:00:00:12.345 +0000|9\n", instr)
	v := get(t, entries[0], "when")
	if v != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("normalized time %q", v)
	}
	if entries[0].Fields[0].Hint != "time" {
		t.Fatal("time hint missing")
	}
}

func TestLinesParser(t *testing.T) {
	input := "skip\nA 1\nB 2\nA 3\nB 4\n"
	instr := Instructions{
		HeaderLines: 1,
		Group: []LineRule{
			{Pattern: `^A (?P<a>\d+)$`},
			{Pattern: `^B (?P<b>\d+)$`},
		},
	}
	entries := collect(t, linesParser, input, instr)
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if get(t, entries[1], "a") != "3" || get(t, entries[1], "b") != "4" {
		t.Fatalf("group merge wrong: %+v", entries[1])
	}
}

func TestLinesParserTruncated(t *testing.T) {
	instr := Instructions{Group: []LineRule{
		{Pattern: `^A$`}, {Pattern: `^B$`},
	}}
	err := linesParser.Parse(strings.NewReader("A\nB\nA\n"), instr, func(mxml.Entry) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated record not detected: %v", err)
	}
}

func TestLinesParserMismatch(t *testing.T) {
	instr := Instructions{Group: []LineRule{{Pattern: `^A$`}}}
	err := linesParser.Parse(strings.NewReader("X\n"), instr, func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("mismatched group line accepted")
	}
}

// Round-trip tests against the logfmt writers: parse what the simulator
// writes.

var (
	ua = time.Date(2017, 4, 1, 0, 0, 12, 345678000, time.UTC)
	ud = ua.Add(2123 * time.Microsecond)
	ds = ua.Add(400 * time.Microsecond)
	dr = ua.Add(1900 * time.Microsecond)
)

func TestApacheRoundTrip(t *testing.T) {
	line := logfmt.ApacheAccess("10.1.0.7", "GET", "/rubbos/ViewStory?ID=req-0000000123",
		200, 18432, ua, ud, ds, dr)
	entries := collect(t, tokenParser, line+"\n", ApacheInstructions())
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "reqid") != "req-0000000123" {
		t.Fatalf("reqid: %+v", e)
	}
	if get(t, e, "ua") != "1491004812345678" {
		t.Fatalf("ua: %q", get(t, e, "ua"))
	}
	if get(t, e, "rt_us") != "2123" {
		t.Fatalf("rt_us: %q", get(t, e, "rt_us"))
	}
	if get(t, e, "status") != "200" {
		t.Fatalf("status: %q", get(t, e, "status"))
	}
}

func TestTomcatRoundTrip(t *testing.T) {
	line := logfmt.TomcatLine(7, "req-0000000042", "/rubbos/Search", ua, ud, ds, dr)
	entries := collect(t, tokenParser, line+"\n", TomcatInstructions())
	e := entries[0]
	if get(t, e, "reqid") != "req-0000000042" || get(t, e, "uri") != "/rubbos/Search" {
		t.Fatalf("tomcat round trip: %+v", e)
	}
	if get(t, e, "ds") == "" {
		t.Fatal("ds missing")
	}
}

func TestTomcatRoundTripNoDownstream(t *testing.T) {
	line := logfmt.TomcatLine(7, "req-0000000042", "/rubbos/Search", ua, ud, time.Time{}, time.Time{})
	entries := collect(t, tokenParser, line+"\n", TomcatInstructions())
	if get(t, entries[0], "ds") != "-" {
		t.Fatalf("dash ds lost: %+v", entries[0])
	}
}

func TestCJDBCRoundTrip(t *testing.T) {
	line := logfmt.CJDBCLine("rubbos", "req-0000000042", 1, ua, ud, ds, dr,
		"SELECT id FROM stories WHERE id=?")
	entries := collect(t, tokenParser, line+"\n", CJDBCInstructions())
	e := entries[0]
	if get(t, e, "reqid") != "req-0000000042" || get(t, e, "q") != "1" {
		t.Fatalf("cjdbc round trip: %+v", e)
	}
	if !strings.Contains(get(t, e, "sql"), "SELECT id FROM stories") {
		t.Fatalf("sql lost: %+v", e)
	}
}

func TestMySQLSlowRoundTrip(t *testing.T) {
	input := logfmt.MySQLHeader() +
		logfmt.MySQLSlowRecord(45, ua, ud, 3, 111,
			"SELECT id,title FROM stories WHERE id=?", "req-0000000123", 1) +
		logfmt.MySQLSlowRecord(46, ua.Add(time.Millisecond), ud.Add(time.Millisecond), 1, 37,
			"SELECT 1", "", 0)
	entries := collect(t, mysqlSlowParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "reqid") != "req-0000000123" || get(t, e, "q") != "1" {
		t.Fatalf("mysql id comment: %+v", e)
	}
	if get(t, e, "ua") != "1491004812345678" {
		t.Fatalf("ua: %q", get(t, e, "ua"))
	}
	if get(t, e, "ud") != "1491004812347801" {
		t.Fatalf("ud: %q", get(t, e, "ud"))
	}
	// Second record has no ID comment; reqid absent but record parsed.
	if _, ok := entries[1].Get("reqid"); ok {
		t.Fatal("reqid present on comment-free record")
	}
}

// TestMySQLSlowQueryTimeExact: ud is ua plus Query_time to the
// microsecond. Scaled as a float, 0.000065 s came out 64 µs, as did 34,142
// of the two million six-decimal values up to 2 s.
func TestMySQLSlowQueryTimeExact(t *testing.T) {
	record := func(qt string) string {
		return "# Time: 2017-04-01T00:00:12.345678Z\n" +
			"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n" +
			"# Query_time: " + qt + "  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n" +
			"SET timestamp=1491004812;\nSELECT 1;\n"
	}
	want := map[string]int64{"0.000065": 65, "1.000001": 1000001, "0.5": 500000, "7.": 7000000,
		".25": 250000, "0.0000019": 1, "00000000000012.000000": 12000000}
	input := logfmt.MySQLHeader()
	var order []string
	for qt := range want {
		input += record(qt)
		order = append(order, qt)
	}
	for i, e := range collect(t, mysqlSlowParser, input, Instructions{}) {
		ua, _ := strconv.ParseInt(get(t, e, "ua"), 10, 64)
		ud, _ := strconv.ParseInt(get(t, e, "ud"), 10, 64)
		if qt := order[i]; ud-ua != want[qt] {
			t.Errorf("Query_time %s: ud - ua = %d us, want %d", qt, ud-ua, want[qt])
		}
	}

	var b []byte
	for us := int64(1); us <= 2_000_000; us++ {
		b = strconv.AppendInt(b[:0], us/1_000_000, 10)
		b = append(b, '.')
		for scale := int64(100_000); scale > 0; scale /= 10 {
			b = append(b, byte('0'+us/scale%10))
		}
		if d, ok := decimalSeconds(b); !ok || d != time.Duration(us)*time.Microsecond {
			t.Fatalf("%s s read as %v (%v)", b, d, ok)
		}
	}
	// Not a decimal, or a billion seconds or more: strconv.ParseFloat decides.
	for _, s := range []string{"", ".", "1.2.3", "1000000000", "1e3"} {
		if d, ok := decimalSeconds([]byte(s)); ok {
			t.Errorf("%q read as %v, want it declined", s, d)
		}
	}
}

func TestSARRoundTrip(t *testing.T) {
	iv := resources.Interval{UserPct: 12.34, SystemPct: 3.21, IOWaitPct: 1.05, IdlePct: 83.40}
	input := logfmt.SARHeader("apache", 8, ua) + "\n" +
		logfmt.SARCPUColumns(ua) + "\n" +
		logfmt.SARCPURow(ua, iv) + "\n" +
		logfmt.SARCPURow(ua.Add(50*time.Millisecond), iv) + "\n"
	entries := collect(t, sarParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "user") != "12.34" || get(t, e, "iowait") != "1.05" {
		t.Fatalf("sar values: %+v", e)
	}
	if got := get(t, e, "ts"); got != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("sar ts: %q", got)
	}
}

func TestSARXMLRoundTrip(t *testing.T) {
	iv := resources.Interval{UserPct: 12.34, SystemPct: 3.21, IOWaitPct: 1.05, IdlePct: 83.40, RunQueue: 5}
	input := logfmt.SARXMLOpen("tomcat", 8, ua) +
		logfmt.SARXMLTimestamp(ua, iv) +
		logfmt.SARXMLTimestamp(ua.Add(50*time.Millisecond), iv) +
		logfmt.SARXMLClose()
	entries := collect(t, sarXMLParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "user") != "12.34" || get(t, e, "runq") != "5" {
		t.Fatalf("sar-xml values: %+v", e)
	}
	if got := get(t, e, "ts"); got != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("sar-xml ts: %q", got)
	}
}

func TestIostatRoundTrip(t *testing.T) {
	iv := resources.Interval{
		UserPct: 12.34, SystemPct: 3.21, IOWaitPct: 1.05, IdlePct: 83.40,
		DiskReadOpsPS: 0.5, DiskWriteOpsPS: 45.2,
		DiskReadKBPS: 8, DiskWriteKBPS: 1024, DiskUtilPct: 29.4, DiskAvgQueue: 0.12,
	}
	input := logfmt.IostatHeader("mysql", 8, ua) + "\n" +
		logfmt.IostatReport(ua, "sda", iv) +
		logfmt.IostatReport(ua.Add(100*time.Millisecond), "sda", iv)
	entries := collect(t, iostatParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "device") != "sda" || get(t, e, "util") != "29.40" {
		t.Fatalf("iostat values: %+v", e)
	}
	if get(t, e, "cpu_iowait") != "1.05" {
		t.Fatalf("iostat cpu: %+v", e)
	}
	if get(t, e, "w_s") != "45.20" {
		t.Fatalf("iostat w/s: %+v", e)
	}
}

func TestCollectlPlainRoundTrip(t *testing.T) {
	iv := resources.Interval{
		UserPct: 12.3, SystemPct: 3.2, IOWaitPct: 1.1,
		DiskReadKBPS: 8, DiskReadOpsPS: 1, DiskWriteKBPS: 1024, DiskWriteOpsPS: 45,
		MemFreeKB: 123456, MemDirtyKB: 789,
	}
	input := logfmt.CollectlPlainHeader() +
		logfmt.CollectlPlainRow(ua, iv) + "\n"
	instr := Instructions{Const: map[string]string{"date": "2017-04-01"}}
	entries := collect(t, collectlPlainParser, input, instr)
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "dirty") != "789" || get(t, e, "kbwrit") != "1024" {
		t.Fatalf("collectl plain values: %+v", e)
	}
	if get(t, e, "ts") != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("ts: %q", get(t, e, "ts"))
	}
}

func TestCollectlPlainRequiresDate(t *testing.T) {
	err := collectlPlainParser.Parse(strings.NewReader(""), Instructions{},
		func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("missing date accepted")
	}
}

func TestCollectlCSVRoundTrip(t *testing.T) {
	iv := resources.Interval{
		UserPct: 12.34, SystemPct: 3.21, IOWaitPct: 1.05, IdlePct: 83.40,
		DiskReadKBPS: 8, DiskWriteKBPS: 1024, DiskReadOpsPS: 1, DiskWriteOpsPS: 45,
		DiskUtilPct: 29.4, MemFreeKB: 123456, MemBuffKB: 1000, MemCachedKB: 5000,
		MemDirtyKB: 789, NetRxKBPS: 10, NetTxKBPS: 20,
	}
	input := logfmt.CollectlCSVHeader() +
		logfmt.CollectlCSVRow(ua, iv) + "\n" +
		logfmt.CollectlCSVRow(ua.Add(50*time.Millisecond), iv) + "\n"
	entries := collect(t, collectlCSVParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "mem_dirty") != "789" {
		t.Fatalf("mem_dirty: %+v", e)
	}
	if get(t, e, "cpu_user") != "12.34" || get(t, e, "dsk_util") != "29.40" {
		t.Fatalf("csv values: %+v", e)
	}
	if get(t, e, "ts") != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("ts: %q", get(t, e, "ts"))
	}
}

func TestPidstatRoundTrip(t *testing.T) {
	input := logfmt.SARHeader("tomcat", 8, ua) + "\n" +
		logfmt.PidstatColumns(ua) + "\n" +
		logfmt.PidstatRow(ua, 48, 2817, 42.5, 3.2, 45.7, 0, "java") + "\n" +
		logfmt.PidstatRow(ua, 0, 153, 0, 87.5, 87.5, 1, "kworker/u16:flush") + "\n"
	entries := collect(t, pidstatParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	e := entries[0]
	if get(t, e, "command") != "java" || get(t, e, "usr") != "42.50" {
		t.Fatalf("pidstat values: %+v", e)
	}
	if get(t, e, "ts") != "2017-04-01T00:00:12.345Z" {
		t.Fatalf("ts: %q", get(t, e, "ts"))
	}
	k := entries[1]
	if get(t, k, "command") != "kworker/u16:flush" || get(t, k, "system") != "87.50" {
		t.Fatalf("flusher row: %+v", k)
	}
}

func TestPidstatDataBeforeHeaderFails(t *testing.T) {
	input := logfmt.PidstatRow(ua, 0, 1, 0, 0, 0, 0, "x") + "\n"
	err := pidstatParser.Parse(strings.NewReader(input), Instructions{},
		func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("data before banner accepted")
	}
}

func TestNormalizeCollectlCol(t *testing.T) {
	cases := map[string]string{
		"[CPU]User%":      "cpu_user",
		"[DSK]WriteKBTot": "dsk_writekbtot",
		"[MEM]Dirty":      "mem_dirty",
		"Date":            "date",
	}
	for in, want := range cases {
		if got := collectlCSVColumns("x," + in + " ,y")[1]; got != want {
			t.Fatalf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkApacheParse(b *testing.B) {
	line := logfmt.ApacheAccess("10.1.0.7", "GET", "/rubbos/ViewStory?ID=req-0000000123",
		200, 18432, ua, ud, ds, dr)
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	input := sb.String()
	instr := ApacheInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := tokenParser.Parse(strings.NewReader(input), instr, func(mxml.Entry) error {
			n++
			return nil
		})
		if err != nil || n != 1000 {
			b.Fatalf("err=%v n=%d", err, n)
		}
	}
}
