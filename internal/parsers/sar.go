package parsers

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"
)

// sarParser is the customized legacy SAR text parser. The paper built a
// custom parser for SAR because the two generic instruction styles were
// insufficient — and the reason is visible in the format: the date lives
// only in the banner line, the column set lives in periodically repeated
// header rows, and data rows carry just a time-of-day. This parser stitches
// the three together.
var sarParser = format{"sar", parseSAR}

func parseSAR(in io.Reader, instr Instructions, sink Sink, _ Recover) error {
	c, err := compile(instr, nil)
	if err != nil {
		return err
	}
	sc := newScanner(in)
	var r Record
	fields := lineFields()
	var date time.Time
	haveDate := false
	var cols []string // column names from the last header row, sans ts/CPU
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		switch {
		case blank(line):
		case hasPrefix(line, "Linux "):
			if date, err = sarBannerDate(string(line)); err != nil {
				return fmt.Errorf("parsers: sar line %d: %w", lineNo, err)
			}
			haveDate = true
		case bytes.Contains(line, []byte("%user")):
			cols = sarHeaderColumns(string(line))
		default:
			if !haveDate {
				return fmt.Errorf("parsers: sar line %d: data before banner", lineNo)
			}
			if cols == nil {
				return fmt.Errorf("parsers: sar line %d: data before column header", lineNo)
			}
			// A row is "HH:MM:SS.mmm  all  v1 v2 ..." against the column set.
			fields = fieldsInto(line, fields)
			if len(fields) != len(cols)+2 {
				return fmt.Errorf("parsers: sar line %d: row has %d fields, want %d: %q", lineNo, len(fields), len(cols)+2, line)
			}
			ts, err := clockOn(date, fields[0])
			if err != nil {
				return fmt.Errorf("parsers: sar line %d: row timestamp %q: %w", lineNo, fields[0], err)
			}
			r.reset()
			r.addTime("ts", ts)
			r.add("cpu", fields[1])
			for i, col := range cols {
				r.add(col, fields[i+2])
			}
			if err := c.apply(&r); err != nil {
				return fmt.Errorf("parsers: sar line %d: %w", lineNo, err)
			}
			if err := sink(&r); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parsers: scan: %w", err)
	}
	return nil
}

// sarBannerDate extracts the date from "Linux ... (host) \tMM/DD/YYYY \t...".
func sarBannerDate(line string) (time.Time, error) {
	for _, tok := range strings.Fields(line) {
		if len(tok) != len("01/02/2006") || tok[2] != '/' {
			continue // nothing else reads as the layout
		}
		if t, err := time.Parse("01/02/2006", tok); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("no date in banner %q", line)
}

// sarHeaderColumns maps "%user"-style column names to field names,
// skipping the leading timestamp and CPU columns.
func sarHeaderColumns(line string) []string {
	fields := strings.Fields(line)
	var cols []string
	for _, f := range fields {
		if strings.HasPrefix(f, "%") {
			cols = append(cols, strings.TrimPrefix(f, "%"))
		}
	}
	return cols
}
