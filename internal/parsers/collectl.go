package parsers

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode"
)

// collectlPlainParser handles collectl's brief terminal format: two '#'
// banner lines followed by fixed-position sample rows. Rows carry only a
// time of day; the date is supplied by the declaration's Const["date"]
// (collectl is launched per trial, so the trial date is known).
var collectlPlainParser = format{"collectl", parseCollectlPlain}

// collectlPlainCols names the value columns after the timestamp.
var collectlPlainCols = []string{
	"user", "sys", "wait", "kbread", "reads", "kbwrit", "writes", "free", "dirty",
}

func parseCollectlPlain(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	dateStr := instr.Const["date"]
	if dateStr == "" {
		return fmt.Errorf("parsers: collectl plain requires Const[\"date\"]")
	}
	date, err := time.Parse("2006-01-02", dateStr)
	if err != nil {
		return fmt.Errorf("parsers: collectl date %q: %w", dateStr, err)
	}
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	fields := lineFields()
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if hasPrefix(line, "#") || blank(line) {
			continue
		}
		fields = fieldsInto(line, fields)
		if len(fields) != len(collectlPlainCols)+1 {
			return fmt.Errorf("parsers: collectl line %d: %d fields, want %d",
				lineNo, len(fields), len(collectlPlainCols)+1)
		}
		ts, err := clockOn(date, fields[0])
		if err != nil {
			return fmt.Errorf("parsers: collectl line %d: timestamp %q: %w", lineNo, fields[0], err)
		}
		r.reset()
		r.addTime("ts", ts)
		for i, col := range collectlPlainCols {
			r.add(col, fields[i+1])
		}
		if err := c.apply(&r); err != nil {
			return fmt.Errorf("parsers: collectl line %d: %w", lineNo, err)
		}
		if err := sink(&r); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}

// collectlCSVParser handles collectl's -P plot format: the header line
// carries bracketed subsystem column names ("[CPU]User%"), which are
// normalized into warehouse-friendly identifiers ("cpu_user"). This is the
// paper's "one-pass customized parser" example.
var collectlCSVParser = format{"collectl-csv", parseCollectlCSV}

func parseCollectlCSV(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	fields := lineFields()
	var cols []string
	dateIdx, timeIdx := -1, -1
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if blank(line) {
			continue
		}
		if cols == nil {
			if !hasPrefix(line, "#") {
				return fmt.Errorf("parsers: collectl-csv line %d: missing header", lineNo)
			}
			cols = collectlCSVColumns(string(line[1:]))
			for i, col := range cols {
				switch col {
				case "date":
					dateIdx = i
				case "time":
					timeIdx = i
				}
			}
			if dateIdx < 0 || timeIdx < 0 {
				return fmt.Errorf("parsers: collectl-csv header lacks Date/Time columns: %q", line)
			}
			continue
		}
		fields = splitInto(line, ',', fields)
		if len(fields) != len(cols) {
			return fmt.Errorf("parsers: collectl-csv line %d: %d fields, want %d",
				lineNo, len(fields), len(cols))
		}
		var stamp [32]byte // "20060102 15:04:05.000" and room to be wrong in
		ts, err := time.Parse("20060102 15:04:05.000", string(dateClock(stamp[:0], fields[dateIdx], fields[timeIdx])))
		if err != nil {
			return fmt.Errorf("parsers: collectl-csv line %d: timestamp: %w", lineNo, err)
		}
		r.reset()
		r.addTime("ts", ts.UTC())
		for i, col := range cols {
			if i != dateIdx && i != timeIdx {
				r.add(col, fields[i])
			}
		}
		if err := c.apply(&r); err != nil {
			return fmt.Errorf("parsers: collectl-csv line %d: %w", lineNo, err)
		}
		if err := sink(&r); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	if cols == nil {
		return fmt.Errorf("parsers: collectl-csv: empty file")
	}
	return nil
}

// collectlCSVColumns converts a header's "[CPU]User%" names to "cpu_user":
// trimmed, percent signs and opening brackets dropped, a closing bracket an
// underscore, lower case. The names are slices of one string.
func collectlCSVColumns(header string) []string {
	raw := strings.Split(header, ",")
	var all strings.Builder
	all.Grow(len(header))
	ends := make([]int, len(raw))
	for i, c := range raw {
		for _, r := range strings.TrimSpace(c) {
			switch r {
			case '%', '[':
			case ']':
				all.WriteByte('_')
			default:
				all.WriteRune(unicode.ToLower(r))
			}
		}
		ends[i] = all.Len()
	}
	start := 0
	for i, end := range ends {
		raw[i], start = all.String()[start:end], end
	}
	return raw
}
