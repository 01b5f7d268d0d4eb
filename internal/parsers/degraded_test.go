package parsers

import (
	"strings"
	"testing"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// collectDegraded runs a degraded parse capturing emitted entries and
// diverted regions.
func collectDegraded(t *testing.T, p DegradedParser, input string, instr Instructions) ([]mxml.Entry, []Malformed) {
	t.Helper()
	var entries []mxml.Entry
	var diverted []Malformed
	err := p.ParseDegraded(strings.NewReader(input), instr,
		func(e mxml.Entry) error { entries = append(entries, e); return nil },
		func(m Malformed) error { diverted = append(diverted, m); return nil })
	if err != nil {
		t.Fatalf("degraded parse failed: %v", err)
	}
	return entries, diverted
}

// TestTokenDegradedDivertsBadLines: garbage lines go to the sink with
// their location; good lines still emit.
func TestTokenDegradedDivertsBadLines(t *testing.T) {
	input := "alpha 1\n\x00garbage\nbeta 2\n"
	instr := Instructions{Pattern: `^(?P<name>\w+) (?P<n>\d+)$`}
	entries, diverted := collectDegraded(t, tokenParser, input, instr)
	if len(entries) != 2 {
		t.Fatalf("emitted %d entries, want 2", len(entries))
	}
	if len(diverted) != 1 {
		t.Fatalf("diverted %d regions, want 1", len(diverted))
	}
	if diverted[0].Line != 2 || !strings.Contains(diverted[0].Text, "garbage") {
		t.Errorf("diverted %+v, want line 2 with raw text", diverted[0])
	}
}

// TestTokenDegradedRequiresSink: a nil Recover is a programming error.
func TestTokenDegradedRequiresSink(t *testing.T) {
	err := tokenParser.ParseDegraded(strings.NewReader("x\n"),
		Instructions{Pattern: `^\d+$`},
		func(mxml.Entry) error { return nil }, nil)
	if err == nil {
		t.Fatal("nil Recover accepted")
	}
}

// TestTokenStrictUnchanged: with rec == nil the shared loop keeps the
// historical fail-fast error shape.
func TestTokenStrictUnchanged(t *testing.T) {
	err := tokenParser.Parse(strings.NewReader("ok 1\nbad\n"),
		Instructions{Pattern: `^(?P<name>\w+) (?P<n>\d+)$`},
		func(mxml.Entry) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("strict error lost location: %v", err)
	}
}

// twoLineInstr is a minimal two-line record group for resync tests.
var twoLineInstr = Instructions{Group: []LineRule{
	{Pattern: `^BEGIN (?P<id>\d+)$`},
	{Pattern: `^END (?P<v>\d+)$`},
}}

// TestLinesDegradedResyncsAtBoundary: a record torn in the middle loses
// only itself; the parser re-locks on the next record-start line.
func TestLinesDegradedResyncsAtBoundary(t *testing.T) {
	input := "BEGIN 1\nEND 10\n" +
		"BEGIN 2\nOOPS\n" + // torn record: second line malformed
		"BEGIN 3\nEND 30\n"
	entries, diverted := collectDegraded(t, linesParser, input, twoLineInstr)
	if len(entries) != 2 {
		t.Fatalf("emitted %d entries, want 2 (records 1 and 3)", len(entries))
	}
	// The torn record's buffered line and the OOPS line both divert.
	if len(diverted) != 2 {
		t.Fatalf("diverted %d regions, want 2: %+v", len(diverted), diverted)
	}
	if diverted[0].Text != "BEGIN 2" || diverted[1].Text != "OOPS" {
		t.Errorf("diverted wrong lines: %+v", diverted)
	}
}

// TestLinesDegradedResyncsOnRecordStart: when the line that breaks a
// record is itself the start of the next record, the next record must
// survive — this is the torn-write case the corruptor injects.
func TestLinesDegradedResyncsOnRecordStart(t *testing.T) {
	input := "BEGIN 1\n" + // truncated: END never arrives
		"BEGIN 2\nEND 20\n"
	entries, diverted := collectDegraded(t, linesParser, input, twoLineInstr)
	if len(entries) != 1 {
		t.Fatalf("emitted %d entries, want 1 (record 2)", len(entries))
	}
	if v, _ := entries[0].Get("id"); v != "2" {
		t.Errorf("surviving record id = %q, want 2", v)
	}
	if len(diverted) != 1 || diverted[0].Text != "BEGIN 1" {
		t.Errorf("diverted %+v, want the abandoned BEGIN 1", diverted)
	}
}

// TestLinesDegradedTruncatedAtEOF: a partial record at EOF diverts with
// the truncation cause instead of failing the file.
func TestLinesDegradedTruncatedAtEOF(t *testing.T) {
	input := "BEGIN 1\nEND 10\nBEGIN 2\n"
	entries, diverted := collectDegraded(t, linesParser, input, twoLineInstr)
	if len(entries) != 1 {
		t.Fatalf("emitted %d entries, want 1", len(entries))
	}
	if len(diverted) != 1 || !strings.Contains(diverted[0].Err.Error(), "truncated") {
		t.Fatalf("diverted %+v, want truncation cause", diverted)
	}
}

// TestLinesStrictTruncationCarriesStartLine: the fail-fast truncation
// error now locates the record start (the satellite bugfix).
func TestLinesStrictTruncationCarriesStartLine(t *testing.T) {
	err := linesParser.Parse(strings.NewReader("BEGIN 1\nEND 10\nBEGIN 2\n"),
		twoLineInstr, func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("truncated record accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "truncated") || !strings.Contains(msg, "line 3") {
		t.Fatalf("truncation error lacks start line: %v", err)
	}
}

// slowHeader is the three-line slow-log preamble.
const slowHeader = "mysqld, Version: 5.7\nTcp port: 3306\nTime Id Command Argument\n"

// slowRecord builds one well-formed five-line slow-log record.
func slowRecord(sec int) string {
	return "# Time: 2017-04-01T00:00:0" + string(rune('0'+sec)) + ".000000Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n" +
		"# Query_time: 0.001000  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n" +
		"SET timestamp=1491004800;\n" +
		"SELECT 1;\n"
}

// TestMySQLSlowDegradedResync: garbage mid-record costs one record; the
// parser re-locks at the next "# Time:" boundary.
func TestMySQLSlowDegradedResync(t *testing.T) {
	input := slowHeader + slowRecord(0) +
		"# Time: 2017-04-01T00:00:01.000000Z\n\x00chaos\n" + // torn record
		slowRecord(2)
	entries, diverted := collectDegraded(t, mysqlSlowParser, input, Instructions{})
	if len(entries) != 2 {
		t.Fatalf("emitted %d entries, want 2", len(entries))
	}
	if len(diverted) == 0 {
		t.Fatal("torn record diverted nothing")
	}
}

// TestMySQLSlowDegradedTruncatedEOF: the corruptor's rotation fault —
// final record cut mid-way — diverts instead of failing.
func TestMySQLSlowDegradedTruncatedEOF(t *testing.T) {
	input := slowHeader + slowRecord(0) +
		"# Time: 2017-04-01T00:00:01.000000Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n"
	entries, diverted := collectDegraded(t, mysqlSlowParser, input, Instructions{})
	if len(entries) != 1 {
		t.Fatalf("emitted %d entries, want 1", len(entries))
	}
	if len(diverted) != 2 {
		t.Fatalf("diverted %d lines, want the 2 partial-record lines", len(diverted))
	}
}

// TestMySQLSlowDegradedSemanticDivert: a structurally complete record with
// an undecodable timestamp diverts as a semantic failure (Line == 0).
func TestMySQLSlowDegradedSemanticDivert(t *testing.T) {
	bad := "# Time: 2017-99-99T00:00:00.000000Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n" +
		"# Query_time: 0.001000  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n" +
		"SET timestamp=1491004800;\n" +
		"SELECT 1;\n"
	entries, diverted := collectDegraded(t, mysqlSlowParser, slowHeader+bad+slowRecord(1), Instructions{})
	if len(entries) != 1 {
		t.Fatalf("emitted %d entries, want 1", len(entries))
	}
	if len(diverted) != 1 || diverted[0].Line != 0 {
		t.Fatalf("diverted %+v, want one semantic (line-0) region", diverted)
	}
}

// TestMySQLSlowStrictSemanticErrorLocated: in strict mode the semantic
// failure surfaces through the record-ending wrapper with a line number
// (the satellite bugfix for the truncation-location class of errors).
func TestMySQLSlowStrictSemanticErrorLocated(t *testing.T) {
	bad := "# Time: 2017-99-99T00:00:00.000000Z\n" +
		"# User@Host: rubbos[rubbos] @ cjdbc [10.0.0.23]  Id:    45\n" +
		"# Query_time: 0.001000  Lock_time: 0.000010 Rows_sent: 1  Rows_examined: 1\n" +
		"SET timestamp=1491004800;\n" +
		"SELECT 1;\n"
	err := mysqlSlowParser.Parse(strings.NewReader(slowHeader+bad), Instructions{},
		func(mxml.Entry) error { return nil })
	if err == nil {
		t.Fatal("bad timestamp accepted")
	}
	if !strings.Contains(err.Error(), "line 8") {
		t.Fatalf("semantic error lacks record location: %v", err)
	}
}
